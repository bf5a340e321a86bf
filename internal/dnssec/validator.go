package dnssec

import (
	"fmt"
	"time"

	"repro/internal/dnswire"
)

// Result is the outcome of chain validation, matching the taxonomy used by
// validating resolvers and by the paper's Table 9.
type Result int

// Validation outcomes.
const (
	// Secure: an unbroken chain of trust from the anchor to the RRset.
	Secure Result = iota
	// Insecure: a delegation on the path is provably unsigned (no DS),
	// e.g. the common third-party-operator missing-DS misconfiguration.
	Insecure
	// Bogus: signatures exist but do not verify (or required ones are
	// missing inside a signed zone).
	Bogus
	// Indeterminate: the record or chain data could not be fetched.
	Indeterminate
)

// String returns the conventional name of the result.
func (r Result) String() string {
	switch r {
	case Secure:
		return "secure"
	case Insecure:
		return "insecure"
	case Bogus:
		return "bogus"
	default:
		return "indeterminate"
	}
}

// ChainSource supplies RRsets and their covering RRSIGs for validation.
// Implementations are expected to answer from authoritative data (the
// resolver package adapts its iterative lookup to this interface).
type ChainSource interface {
	// FetchRRset returns the RRset for (name, type), the RRSIG records
	// covering it, and whether the name/type exists at all.
	FetchRRset(name string, t dnswire.Type) (rrs, sigs []dnswire.RR, exists bool)
}

// ZoneKeyCache remembers zone DNSKEY RRsets that already validated, so
// repeated validations (e.g. one per scanned domain) do not re-verify the
// root and TLD self-signatures. Implementations decide expiry.
type ZoneKeyCache interface {
	Get(zone string) ([]dnswire.RR, bool)
	Put(zone string, keys []dnswire.RR)
}

// Validator walks the chain of trust from a root trust anchor down to a
// target RRset.
type Validator struct {
	source ChainSource
	// anchor is the trusted root DNSKEY RRset.
	anchor []dnswire.RR
	now    time.Time
	// KeyCache, when set, short-circuits re-validation of zone keys.
	KeyCache ZoneKeyCache
	// Memo, when set, spares the ECDSA step of signatures it has already
	// seen verify; nil verifies every signature in full.
	Memo *SigMemo
}

// NewValidator creates a validator using the given source, trusted root
// DNSKEY RRset, and validation time.
func NewValidator(source ChainSource, rootDNSKEYs []dnswire.RR, now time.Time) *Validator {
	return &Validator{source: source, anchor: rootDNSKEYs, now: now}
}

// verifyWithKeys checks that at least one (rrsig, dnskey) pair verifies.
func (v *Validator) verifyWithKeys(rrs, sigs, keys []dnswire.RR) error {
	if len(rrs) == 0 {
		return ErrEmptyRRset
	}
	if len(sigs) == 0 {
		return fmt.Errorf("dnssec: no RRSIG for %s/%s", rrs[0].Name, rrs[0].Type)
	}
	var lastErr error
	for _, sig := range sigs {
		for _, key := range keys {
			if err := v.Memo.Verify(sig, rrs, key, v.now); err == nil {
				return nil
			} else {
				lastErr = err
			}
		}
	}
	if lastErr == nil {
		lastErr = ErrNoKey
	}
	return lastErr
}

// validateZoneKeys fetches and validates the DNSKEY RRset of zone. trusted
// is either the parent-provided DS RRset (normal case) or nil when the zone
// is the root (anchor comparison instead).
func (v *Validator) validateZoneKeys(zone string, dsSet []dnswire.RR) ([]dnswire.RR, Result, error) {
	if v.KeyCache != nil {
		if keys, ok := v.KeyCache.Get(zone); ok {
			return keys, Secure, nil
		}
	}
	keys, keySigs, ok := v.source.FetchRRset(zone, dnswire.TypeDNSKEY)
	if !ok || len(keys) == 0 {
		return nil, Bogus, fmt.Errorf("dnssec: zone %s has no DNSKEY RRset", zone)
	}
	// The DNSKEY RRset must be self-signed by a key that is anchored:
	// matching a DS from the parent, or (for the root) the trust anchor.
	var anchored []dnswire.RR
	if dsSet == nil {
		for _, k := range keys {
			for _, a := range v.anchor {
				if sameWire(k, a) {
					anchored = append(anchored, k)
				}
			}
		}
	} else {
		for _, k := range keys {
			for _, ds := range dsSet {
				if matchesDS(k, ds) {
					anchored = append(anchored, k)
				}
			}
		}
	}
	if len(anchored) == 0 {
		return nil, Bogus, fmt.Errorf("dnssec: no anchored key for zone %s", zone)
	}
	if err := v.verifyWithKeys(keys, keySigs, anchored); err != nil {
		return nil, Bogus, fmt.Errorf("dnssec: DNSKEY RRset of %s not properly self-signed: %w", zone, err)
	}
	if v.KeyCache != nil {
		v.KeyCache.Put(zone, keys)
	}
	return keys, Secure, nil
}

// sameWire reports whether two records pack to the same canonical wire.
func sameWire(a, b dnswire.RR) bool {
	bp := wirePool.Get().(*[]byte)
	defer wirePool.Put(bp)
	buf, err := dnswire.PackRR((*bp)[:0], a)
	if err != nil {
		return false
	}
	n := len(buf)
	if buf, err = dnswire.PackRR(buf, b); err != nil {
		return false
	}
	*bp = buf
	return string(buf[:n]) == string(buf[n:])
}

// zoneChain appends to chain the delegation points from the root down to
// the zone containing name: the suffixes of name at which the source has
// an NS or DNSKEY RRset (i.e. real zone cuts in the modelled hierarchy).
func (v *Validator) zoneChain(chain []string, name string) []string {
	chain = append(chain, ".")
	// name is canonical, so every suffix that starts a label is too.
	for i := len(name) - 2; i >= 0; i-- {
		if i > 0 && name[i-1] != '.' {
			continue
		}
		candidate := name[i:]
		if _, _, ok := v.source.FetchRRset(candidate, dnswire.TypeNS); ok {
			chain = append(chain, candidate)
			continue
		}
		if _, _, ok := v.source.FetchRRset(candidate, dnswire.TypeDNSKEY); ok {
			chain = append(chain, candidate)
		}
	}
	return chain
}

// Validate walks the chain of trust and validates the RRset (name, t).
// The returned error explains Bogus/Indeterminate outcomes.
func (v *Validator) Validate(name string, t dnswire.Type) (Result, error) {
	name = dnswire.CanonicalName(name)
	rrs, sigs, ok := v.source.FetchRRset(name, t)
	if !ok || len(rrs) == 0 {
		return Indeterminate, fmt.Errorf("dnssec: %s/%s not found", name, t)
	}

	var stack [8]string // the root, a TLD, a domain: deeper chains spill
	chain := v.zoneChain(stack[:0], name)
	// Validate the root zone keys against the anchor.
	keys, res, err := v.validateZoneKeys(".", nil)
	if err != nil {
		return res, err
	}
	// Walk down the delegations.
	for _, zone := range chain[1:] {
		dsSet, dsSigs, dsOK := v.source.FetchRRset(zone, dnswire.TypeDS)
		if !dsOK || len(dsSet) == 0 {
			// Provably unsigned delegation: everything below is insecure.
			return Insecure, nil
		}
		// The DS RRset is served and signed by the parent zone.
		if err := v.verifyWithKeys(dsSet, dsSigs, keys); err != nil {
			return Bogus, fmt.Errorf("dnssec: DS RRset for %s fails validation: %w", zone, err)
		}
		keys, res, err = v.validateZoneKeys(zone, dsSet)
		if err != nil {
			return res, err
		}
	}
	// Finally validate the target RRset with the containing zone's keys.
	if len(sigs) == 0 {
		return Bogus, fmt.Errorf("dnssec: %s/%s unsigned inside signed zone", name, t)
	}
	if err := v.verifyWithKeys(rrs, sigs, keys); err != nil {
		return Bogus, err
	}
	return Secure, nil
}
