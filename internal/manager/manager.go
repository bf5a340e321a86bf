// Package manager implements the automation tool the paper's Discussion
// (§7) calls for: ACME/Certbot-style management of DNS HTTPS records. It
// audits a domain's published records for the misconfiguration classes the
// measurements uncovered — IP hints diverging from A/AAAA records,
// AliasMode self-targets, empty ServiceMode parameter lists, mandatory-key
// violations, unsafe ECH rotation relative to DNS TTLs — and can reconcile
// the zone automatically (hint synchronisation and cache-safe ECH
// publication with old-key retention).
package manager

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/svcb"
	"repro/internal/zone"
)

// Severity grades an audit finding.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	// Critical findings can break client connections (the §4.3.5 and
	// §5.3 failure modes).
	Critical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Critical:
		return "CRITICAL"
	case Warning:
		return "WARNING"
	default:
		return "INFO"
	}
}

// Finding codes.
const (
	CodeHintMismatchV4  = "hint-mismatch-v4"
	CodeHintMismatchV6  = "hint-mismatch-v6"
	CodeAliasSelfTarget = "alias-self-target"
	CodeAliasWithParams = "alias-with-params"
	CodeServiceNoParams = "service-no-params"
	CodeMandatoryBroken = "mandatory-violation"
	CodeECHUnparseable  = "ech-unparseable"
	CodeECHNoRetention  = "ech-rotation-unsafe"
	CodeECHStaleKey     = "ech-stale-key"
	CodeNoHTTPSRecord   = "no-https-record"
	CodeMixedAliasSvc   = "mixed-alias-service"
	CodeDraftALPN       = "draft-alpn"
)

// Finding is one audit result.
type Finding struct {
	Severity Severity
	Code     string
	Name     string // owner name the finding applies to
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", f.Severity, f.Code, f.Name, f.Message)
}

// Auditor inspects the HTTPS records of names in a zone.
type Auditor struct {
	Zone *zone.Zone
	// ECHKeys, when set, lets the auditor verify published ECH configs
	// against the currently valid server keys.
	ECHKeys *ech.KeyManager
	// Now supplies the audit time (ECH validity).
	Now time.Time
}

// Audit runs every check against one owner name.
func (a *Auditor) Audit(name string) []Finding {
	name = dnswire.CanonicalName(name)
	var findings []Finding
	add := func(sev Severity, code, msg string) {
		findings = append(findings, Finding{Severity: sev, Code: code, Name: name, Message: msg})
	}

	httpsRRs, _, ok := a.Zone.Lookup(name, dnswire.TypeHTTPS)
	if !ok || len(httpsRRs) == 0 {
		add(Info, CodeNoHTTPSRecord, "no HTTPS records published")
		return findings
	}

	aAddrs := lookupAddrs(a.Zone, name, dnswire.TypeA)
	aaaaAddrs := lookupAddrs(a.Zone, name, dnswire.TypeAAAA)

	hasAlias, hasService := false, false
	for _, rr := range httpsRRs {
		data, okData := rr.Data.(*dnswire.SVCBData)
		if !okData {
			continue
		}
		if data.AliasMode() {
			hasAlias = true
			a.auditAlias(name, data, add)
			continue
		}
		hasService = true
		a.auditService(name, data, aAddrs, aaaaAddrs, add)
	}
	if hasAlias && hasService {
		add(Warning, CodeMixedAliasSvc, "AliasMode and ServiceMode records coexist; clients disagree on precedence")
	}
	return findings
}

func (a *Auditor) auditAlias(name string, data *dnswire.SVCBData, add func(Severity, string, string)) {
	target := dnswire.CanonicalName(data.Target)
	if data.Target == "." || target == name {
		// §E.1: 19 domains alias to themselves, which provides no alias.
		add(Warning, CodeAliasSelfTarget, "AliasMode record targets the owner itself")
	}
	if len(data.Params) > 0 {
		add(Critical, CodeAliasWithParams, "AliasMode record carries SvcParams (forbidden by RFC 9460)")
	}
}

func (a *Auditor) auditService(name string, data *dnswire.SVCBData, aAddrs, aaaaAddrs []netip.Addr, add func(Severity, string, string)) {
	if len(data.Params) == 0 {
		// §E.1: 232 domains publish ServiceMode records that convey no
		// information beyond "HTTPS exists".
		add(Info, CodeServiceNoParams, "ServiceMode record has no SvcParams")
	}
	if err := data.Params.Validate(); err != nil {
		add(Critical, CodeMandatoryBroken, "SvcParams invalid: "+err.Error())
	}

	// IP hints must track the address records (§4.3.5): stale hints make
	// the domain unreachable for hint-preferring clients when the old
	// address dies.
	if hints, ok := data.Params.IPv4Hints(); ok && data.Target == "." {
		if !svcb.SameAddrSet(hints, aAddrs) {
			add(Critical, CodeHintMismatchV4,
				fmt.Sprintf("ipv4hint %v diverges from A records %v", hints, aAddrs))
		}
	}
	if hints, ok := data.Params.IPv6Hints(); ok && data.Target == "." {
		if !svcb.SameAddrSet(hints, aaaaAddrs) {
			add(Critical, CodeHintMismatchV6,
				fmt.Sprintf("ipv6hint %v diverges from AAAA records %v", hints, aaaaAddrs))
		}
	}

	// Obsolete draft ALPN identifiers (§E.2: h3-27/h3-29 stragglers).
	if alpn, ok := data.Params.ALPN(); ok {
		for _, p := range alpn {
			if p == "h3-29" || p == "h3-27" {
				add(Warning, CodeDraftALPN, "obsolete draft protocol advertised: "+p)
			}
		}
	}

	// ECH checks.
	if raw, ok := data.Params.ECH(); ok {
		configs, err := ech.UnmarshalList(raw)
		if err != nil {
			// §5.3: Chrome/Edge hard-fail on malformed ECH configs.
			add(Critical, CodeECHUnparseable, "published ECH config list does not parse: "+err.Error())
			return
		}
		if a.ECHKeys != nil {
			cfg, err := ech.SelectConfig(configs)
			if err != nil {
				add(Critical, CodeECHUnparseable, "no supported config in ECH list")
				return
			}
			current := a.ECHKeys.CurrentConfig(a.Now)
			if cfg.ConfigID != current.ConfigID && !a.serverStillAccepts(cfg) {
				add(Critical, CodeECHStaleKey,
					"published ECH key is no longer accepted by the server (cached copies will need retry)")
			}
		}
	}
}

// serverStillAccepts probes whether the key manager can still decrypt under
// the published config (i.e. the config is within the retention window).
func (a *Auditor) serverStillAccepts(cfg ech.Config) bool {
	enc, ct, err := ech.Seal(nil, cfg, nil, []byte("probe"))
	if err != nil {
		return false
	}
	_, err = a.ECHKeys.Open(a.Now, cfg.ConfigID, enc, nil, ct)
	return err == nil
}

func lookupAddrs(z *zone.Zone, name string, t dnswire.Type) []netip.Addr {
	rrs, _, _ := z.Lookup(name, t)
	var out []netip.Addr
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case *dnswire.AData:
			out = append(out, d.Addr)
		case *dnswire.AAAAData:
			out = append(out, d.Addr)
		}
	}
	return out
}

// Manager applies automatic remediations to a zone, the way Certbot renews
// certificates.
type Manager struct {
	Zone *zone.Zone
	// TTL used for records the manager writes.
	TTL uint32
}

// SyncHints rewrites the ipv4hint/ipv6hint parameters of every ServiceMode
// HTTPS record at name to match the current A/AAAA records, eliminating the
// §4.3.5 divergence class. It returns whether anything changed.
func (m *Manager) SyncHints(name string) (bool, error) {
	name = dnswire.CanonicalName(name)
	httpsRRs, _, ok := m.Zone.Lookup(name, dnswire.TypeHTTPS)
	if !ok {
		return false, fmt.Errorf("manager: no HTTPS records at %s", name)
	}
	aAddrs := lookupAddrs(m.Zone, name, dnswire.TypeA)
	aaaaAddrs := lookupAddrs(m.Zone, name, dnswire.TypeAAAA)
	changed := false
	m.Zone.RemoveRRset(name, dnswire.TypeHTTPS)
	for _, rr := range httpsRRs {
		data, okData := rr.Data.(*dnswire.SVCBData)
		if okData && !data.AliasMode() && data.Target == "." {
			if _, had := data.Params.IPv4Hints(); had {
				if len(aAddrs) > 0 {
					if err := data.Params.SetIPv4Hints(aAddrs); err == nil {
						changed = true
					}
				} else {
					data.Params.Delete(svcb.KeyIPv4Hint)
					changed = true
				}
			}
			if _, had := data.Params.IPv6Hints(); had {
				if len(aaaaAddrs) > 0 {
					if err := data.Params.SetIPv6Hints(aaaaAddrs); err == nil {
						changed = true
					}
				} else {
					data.Params.Delete(svcb.KeyIPv6Hint)
					changed = true
				}
			}
		}
		m.Zone.Add(rr)
	}
	return changed, nil
}

// ECHPolicy captures the §4.4.2 cache-safety rule for key rotation:
// superseded keys must keep decrypting for at least the record TTL (plus
// a safety margin), or clients holding cached records break unless retry
// is implemented end to end.
type ECHPolicy struct {
	RecordTTL time.Duration
	Margin    time.Duration
}

// SafeRetention returns the minimum retention for superseded ECH keys.
func (p ECHPolicy) SafeRetention() time.Duration {
	return p.RecordTTL + p.Margin
}

// CheckRotation verifies a key manager's configuration against the policy:
// the rotation period must exceed zero and the retention window must cover
// cached records.
func (p ECHPolicy) CheckRotation(rotationPeriod, retention time.Duration) []Finding {
	var findings []Finding
	if retention < p.SafeRetention() {
		findings = append(findings, Finding{
			Severity: Critical,
			Code:     CodeECHNoRetention,
			Name:     "(ech-policy)",
			Message: fmt.Sprintf("retention %v < TTL+margin %v: cached configs outlive the keys (clients will hit the retry path or fail)",
				retention, p.SafeRetention()),
		})
	}
	if rotationPeriod < p.RecordTTL {
		findings = append(findings, Finding{
			Severity: Warning,
			Code:     CodeECHNoRetention,
			Name:     "(ech-policy)",
			Message: fmt.Sprintf("rotation period %v shorter than record TTL %v: most cached records are stale",
				rotationPeriod, p.RecordTTL),
		})
	}
	return findings
}

// PublishECH writes the key manager's current config list into every
// ServiceMode HTTPS record at name, after checking the rotation policy.
func (m *Manager) PublishECH(name string, km *ech.KeyManager, now time.Time) error {
	name = dnswire.CanonicalName(name)
	httpsRRs, _, ok := m.Zone.Lookup(name, dnswire.TypeHTTPS)
	if !ok {
		return fmt.Errorf("manager: no HTTPS records at %s", name)
	}
	list := km.ConfigList(now)
	m.Zone.RemoveRRset(name, dnswire.TypeHTTPS)
	for _, rr := range httpsRRs {
		if data, okData := rr.Data.(*dnswire.SVCBData); okData && !data.AliasMode() {
			data.Params.SetECH(list)
		}
		m.Zone.Add(rr)
	}
	return nil
}
