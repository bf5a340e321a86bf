package browser

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// Error codes surfaced to the user, matching the paper's observations.
const (
	ErrNameNotResolved        = "ERR_NAME_NOT_RESOLVED"
	ErrConnectionRefused      = "ERR_CONNECTION_REFUSED"
	ErrConnectionClosed       = "ERR_CONNECTION_CLOSED"
	ErrCertCommonNameInvalid  = "ERR_CERT_COMMON_NAME_INVALID"
	ErrECHFallbackCertInvalid = "ERR_ECH_FALLBACK_CERTIFICATE_INVALID"
)

// DoHTransport is the encrypted-DNS stub a browser routes HTTPS-RR
// queries through when its behaviour requires DoH (transport.Client in
// practice; the interface matches scanner.Transport).
type DoHTransport interface {
	Exchange(q *dnswire.Message) (*dnswire.Message, error)
}

// Browser drives navigations with one behaviour profile over a simnet.
type Browser struct {
	B        Behavior
	Net      *simnet.Network
	Resolver netip.Addr
	// DoH, when non-nil and the behaviour sets RequiresDoH, carries the
	// browser's HTTPS-RR queries through an encrypted transport instead
	// of the bare resolver — Firefox's TRR wiring, where HTTPS records
	// are only fetched when DoH is configured. A/AAAA lookups keep using
	// the OS resolver path, as Firefox does outside TRR-only mode.
	DoH DoHTransport

	qid uint16
}

// Attempt records one connection attempt.
type Attempt struct {
	Addr        netip.Addr
	Port        uint16
	SNI         string
	ALPN        []string
	ECHOffered  bool
	ECHAccepted bool
	Err         string
}

// VisitResult is the outcome of one navigation.
type VisitResult struct {
	URL          string
	QueriedHTTPS bool
	QueriedA     bool
	HTTPSRecords int
	// UsedHTTPSRR: the fetched records influenced the connection.
	UsedHTTPSRR bool
	// Scheme finally used ("http" or "https").
	Scheme   string
	Attempts []Attempt
	OK       bool
	ErrCode  string
	// ALPN negotiated on success.
	ALPN string
	// SNI is the effective (inner, for ECH) server name.
	SNI string
	// ECHUsed: the connection was established with an accepted ECH.
	ECHUsed bool
	// ConnectedTo is the final endpoint.
	ConnectedTo netip.AddrPort
	// FollowUpQueries lists extra DNS names the browser resolved
	// (TargetName chasing).
	FollowUpQueries []string
}

// --- DNS helpers ---

func (br *Browser) query(name string, t dnswire.Type) (*dnswire.Message, error) {
	br.qid++
	q := dnswire.NewQuery(br.qid, name, t, false)
	if br.DoH != nil && br.B.RequiresDoH && t == dnswire.TypeHTTPS {
		return br.DoH.Exchange(q)
	}
	return br.Net.QueryDNS(br.Resolver, q)
}

func (br *Browser) lookupA(name string) []netip.Addr {
	resp, err := br.query(name, dnswire.TypeA)
	if err != nil {
		return nil
	}
	var out []netip.Addr
	for _, rr := range resp.Answer {
		if a, ok := rr.Data.(*dnswire.AData); ok {
			out = append(out, a.Addr)
		}
	}
	return out
}

// httpsRecord is a decoded HTTPS record relevant to navigation.
type httpsRecord struct {
	Priority uint16
	Target   string
	ALPN     []string
	HasALPN  bool
	Port     uint16
	HasPort  bool
	V4Hints  []netip.Addr
	ECHRaw   []byte
}

func (br *Browser) lookupHTTPS(name string) []httpsRecord {
	resp, err := br.query(name, dnswire.TypeHTTPS)
	if err != nil {
		return nil
	}
	var out []httpsRecord
	for _, rr := range resp.Answer {
		data, ok := rr.Data.(*dnswire.SVCBData)
		if !ok || rr.Type != dnswire.TypeHTTPS {
			continue
		}
		rec := httpsRecord{Priority: data.Priority, Target: dnswire.CanonicalName(data.Target)}
		if data.Target == "." {
			rec.Target = "."
		}
		if alpn, ok := data.Params.ALPN(); ok {
			rec.ALPN, rec.HasALPN = alpn, true
		}
		if port, ok := data.Params.Port(); ok {
			rec.Port, rec.HasPort = port, true
		}
		if hints, ok := data.Params.IPv4Hints(); ok {
			rec.V4Hints = hints
		}
		if raw, ok := data.Params.ECH(); ok {
			rec.ECHRaw = raw
		}
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool {
		// AliasMode (0) first per its special meaning; among ServiceMode
		// lower priority wins.
		return out[i].Priority < out[j].Priority
	})
	return out
}

// parseURL splits a navigation target into scheme and host.
func parseURL(url string) (scheme, host string) {
	switch {
	case strings.HasPrefix(url, "https://"):
		return "https", strings.TrimSuffix(strings.TrimPrefix(url, "https://"), "/")
	case strings.HasPrefix(url, "http://"):
		return "http", strings.TrimSuffix(strings.TrimPrefix(url, "http://"), "/")
	default:
		return "", strings.TrimSuffix(url, "/")
	}
}

// Navigate performs one navigation and reports everything observed.
func (br *Browser) Navigate(url string) *VisitResult {
	scheme, host := parseURL(url)
	host = dnswire.CanonicalName(host)
	res := &VisitResult{URL: url}

	// All four browsers issue both HTTPS and A queries up front (§5.1).
	recs := br.lookupHTTPS(host)
	res.QueriedHTTPS = true
	res.HTTPSRecords = len(recs)
	aAddrs := br.lookupA(host)
	res.QueriedA = true

	useHTTPS := scheme == "https"
	if !useHTTPS && len(recs) > 0 && br.B.UpgradesScheme {
		// The HTTPS record signals HTTPS support: upgrade.
		useHTTPS = true
		res.UsedHTTPSRR = true
	}
	if !useHTTPS {
		return br.plainHTTP(res, host, aAddrs)
	}
	res.Scheme = "https"
	if len(recs) == 0 {
		br.connectPlainTLS(res, host, aAddrs, nil)
		return res
	}
	res.UsedHTTPSRR = true

	// Chromium disregards records with an empty alpn parameter.
	if br.B.IgnoresEmptyALPN {
		kept := recs[:0]
		for _, r := range recs {
			if r.Priority == 0 || r.HasALPN {
				kept = append(kept, r)
			}
		}
		recs = kept
		if len(recs) == 0 {
			br.connectPlainTLS(res, host, aAddrs, nil)
			return res
		}
	}

	rec := recs[0]
	if rec.Priority == 0 {
		br.navigateAlias(res, host, rec, aAddrs)
		return res
	}
	br.navigateService(res, host, rec, aAddrs)
	return res
}

// plainHTTP models the legacy port-80 connection (Safari's behaviour for
// bare and http:// URLs even when HTTPS records exist).
func (br *Browser) plainHTTP(res *VisitResult, host string, addrs []netip.Addr) *VisitResult {
	res.Scheme = "http"
	if len(addrs) == 0 {
		res.ErrCode = ErrNameNotResolved
		return res
	}
	ap := netip.AddrPortFrom(addrs[0], 80)
	res.Attempts = append(res.Attempts, Attempt{Addr: addrs[0], Port: 80, SNI: host})
	if _, err := br.Net.Service(ap); err != nil {
		res.ErrCode = ErrConnectionRefused
		return res
	}
	res.OK = true
	res.ConnectedTo = ap
	res.SNI = host
	return res
}

// navigateAlias handles an AliasMode record.
func (br *Browser) navigateAlias(res *VisitResult, host string, rec httpsRecord, aAddrs []netip.Addr) {
	target := host
	addrs := aAddrs
	if br.B.FollowsAliasMode && rec.Target != "." && rec.Target != host {
		target = rec.Target
		res.FollowUpQueries = append(res.FollowUpQueries, target)
		addrs = br.lookupA(target)
	}
	br.connectPlainTLS(res, target, addrs, nil)
}

// navigateService handles a ServiceMode record with full parameter
// resolution per the behaviour profile.
func (br *Browser) navigateService(res *VisitResult, host string, rec httpsRecord, aAddrs []netip.Addr) {
	effHost := host
	effAddrs := aAddrs
	if rec.Target != "." && rec.Target != host && br.B.FollowsServiceTarget {
		effHost = rec.Target
		res.FollowUpQueries = append(res.FollowUpQueries, effHost)
		effAddrs = br.lookupA(effHost)
	}

	port := uint16(443)
	if rec.HasPort && br.B.UsesPort {
		port = rec.Port
	}

	// Candidate address order per hint policy.
	var candidates []netip.Addr
	switch {
	case br.B.UsesIPHints && br.B.PrefersIPHints:
		candidates = append(append([]netip.Addr(nil), rec.V4Hints...), effAddrs...)
	case br.B.UsesIPHints:
		candidates = append(append([]netip.Addr(nil), effAddrs...), rec.V4Hints...)
	default:
		candidates = effAddrs
	}
	candidates = dedupAddrs(candidates)
	if len(candidates) == 0 {
		res.ErrCode = ErrNameNotResolved
		return
	}
	if !br.B.AddrFailover {
		candidates = candidates[:1]
	}

	var alpn []string
	if br.B.UsesALPN && rec.HasALPN {
		alpn = append(alpn, rec.ALPN...)
	} else {
		alpn = []string{"h2", "http/1.1"}
	}

	// ECH preparation.
	var echCfg *ech.Config
	if len(rec.ECHRaw) > 0 && br.B.SupportsECH {
		configs, err := ech.UnmarshalList(rec.ECHRaw)
		var cfg ech.Config
		if err == nil {
			cfg, err = ech.SelectConfig(configs)
		}
		if err != nil {
			if !br.B.ECHMalformedFallback {
				// Chrome/Edge terminate after the initial SYN.
				res.Attempts = append(res.Attempts, Attempt{Addr: candidates[0], Port: port,
					SNI: effHost, Err: "malformed ECH config"})
				res.ErrCode = ErrConnectionClosed
				return
			}
			// Firefox proceeds with a standard handshake.
		} else {
			echCfg = &cfg
			if br.B.ECHSplitModeRequery && trimDot(cfg.PublicName) != trimDot(effHost) {
				// The correct (unimplemented) behaviour: resolve the
				// client-facing server and connect there.
				res.FollowUpQueries = append(res.FollowUpQueries, cfg.PublicName)
				if addrs := br.lookupA(cfg.PublicName); len(addrs) > 0 {
					candidates = addrs
				}
			}
		}
	}

	br.connectLoop(res, effHost, candidates, port, alpn, echCfg)

	// Port failover: retry on 443 when the advertised port failed.
	if !res.OK && res.ErrCode == ErrConnectionRefused && port != 443 && br.B.PortFailover {
		res.ErrCode = ""
		br.connectLoop(res, effHost, candidates, 443, alpn, echCfg)
	}
}

// connectPlainTLS dials without SvcParams.
func (br *Browser) connectPlainTLS(res *VisitResult, host string, addrs []netip.Addr, alpn []string) {
	if len(addrs) == 0 {
		res.ErrCode = ErrNameNotResolved
		return
	}
	if alpn == nil {
		alpn = []string{"h2", "http/1.1"}
	}
	if !br.B.AddrFailover && len(addrs) > 1 {
		addrs = addrs[:1]
	}
	br.connectLoop(res, host, addrs, 443, alpn, nil)
}

// connectLoop walks candidate addresses performing handshakes, applying the
// ECH retry and unilateral-fallback logic.
func (br *Browser) connectLoop(res *VisitResult, sni string, addrs []netip.Addr, port uint16, alpn []string, echCfg *ech.Config) {
	var lastErr string
	for _, addr := range addrs {
		ap := netip.AddrPortFrom(addr, port)
		hs, attempt, err := br.handshake(ap, sni, alpn, echCfg)
		res.Attempts = append(res.Attempts, attempt)
		if err != nil {
			lastErr = classifyDialErr(err)
			continue // address failover (loop bounded by caller policy)
		}
		br.finish(res, ap, sni, hs, echCfg)
		return
	}
	if res.ErrCode == "" {
		if lastErr == "" {
			lastErr = ErrConnectionRefused
		}
		res.ErrCode = lastErr
	}
}

// handshake performs one dial, handling ECH encryption.
func (br *Browser) handshake(ap netip.AddrPort, sni string, alpn []string, echCfg *ech.Config) (*tlssim.HandshakeResult, Attempt, error) {
	attempt := Attempt{Addr: ap.Addr(), Port: ap.Port(), SNI: sni, ALPN: alpn}
	var hello *tlssim.ClientHello
	if echCfg != nil {
		attempt.ECHOffered = true
		attempt.SNI = echCfg.PublicName // outer SNI
		var err error
		hello, err = tlssim.BuildECHHello(*echCfg, sni, alpn)
		if err != nil {
			return nil, attempt, err
		}
	} else {
		hello = &tlssim.ClientHello{SNI: sni, ALPN: alpn}
	}
	hs, err := tlssim.Dial(br.Net, ap, hello)
	if err != nil {
		attempt.Err = err.Error()
		return nil, attempt, err
	}
	attempt.ECHAccepted = hs.ECHAccepted
	return hs, attempt, nil
}

// finish evaluates a completed handshake: ECH retry/fallback and
// certificate validation.
func (br *Browser) finish(res *VisitResult, ap netip.AddrPort, sni string, hs *tlssim.HandshakeResult, echCfg *ech.Config) {
	if echCfg != nil && !hs.ECHAccepted {
		// Server could not use our ECH. Retry with fresh configs when
		// provided (the draft's retry mechanism).
		if len(hs.RetryConfigs) > 0 && br.B.ECHRetry {
			if configs, err := ech.UnmarshalList(hs.RetryConfigs); err == nil {
				if cfg, err := ech.SelectConfig(configs); err == nil {
					hs2, attempt, err := br.handshake(ap, sni, firstALPN(res), &cfg)
					res.Attempts = append(res.Attempts, attempt)
					if err == nil {
						br.finish(res, ap, sni, hs2, &cfg)
						return
					}
				}
			}
		}
		// No usable retry: ECH is "securely disabled" only when the
		// fallback certificate validates for the client-facing server
		// (public_name); then a standard handshake proceeds. Otherwise
		// the connection hard-fails — the split-mode outcome, since the
		// back-end's certificate does not cover the public name.
		if hs.CertMatches(echCfg.PublicName) {
			hs2, attempt, err := br.handshake(ap, sni, firstALPN(res), nil)
			res.Attempts = append(res.Attempts, attempt)
			if err == nil {
				br.finish(res, ap, sni, hs2, nil)
				return
			}
		}
		res.ErrCode = ErrECHFallbackCertInvalid
		return
	}
	if !hs.CertMatches(sni) {
		if echCfg != nil {
			res.ErrCode = ErrECHFallbackCertInvalid
		} else {
			res.ErrCode = ErrCertCommonNameInvalid
		}
		return
	}
	res.OK = true
	res.ErrCode = ""
	res.ConnectedTo = ap
	res.SNI = trimDot(sni)
	res.ALPN = hs.ALPN
	res.ECHUsed = hs.ECHAccepted
}

func firstALPN(res *VisitResult) []string {
	if len(res.Attempts) > 0 {
		return res.Attempts[len(res.Attempts)-1].ALPN
	}
	return nil
}

func classifyDialErr(err error) string {
	switch {
	case errors.Is(err, simnet.ErrUnreachable), errors.Is(err, simnet.ErrRefused),
		errors.Is(err, simnet.ErrNoService):
		return ErrConnectionRefused
	default:
		return ErrConnectionClosed
	}
}

func dedupAddrs(addrs []netip.Addr) []netip.Addr {
	seen := map[netip.Addr]bool{}
	out := addrs[:0]
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func trimDot(s string) string { return strings.TrimSuffix(s, ".") }

// String describes the visit tersely for logs.
func (v *VisitResult) String() string {
	status := "OK"
	if !v.OK {
		status = v.ErrCode
	}
	return fmt.Sprintf("%s → %s [%s] attempts=%d alpn=%q ech=%v",
		v.URL, v.Scheme, status, len(v.Attempts), v.ALPN, v.ECHUsed)
}
