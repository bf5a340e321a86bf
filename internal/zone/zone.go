// Package zone implements an authoritative DNS zone: an RRset store with
// the lookup semantics an authoritative server needs (exact match, CNAME,
// delegation referrals, NXDOMAIN/NODATA) plus whole-zone DNSSEC signing.
package zone

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

// rrsetKey identifies an RRset within a zone.
type rrsetKey struct {
	name string
	typ  dnswire.Type
}

// Zone is a single authoritative zone rooted at Origin.
type Zone struct {
	Origin string

	mu     sync.RWMutex
	rrsets map[rrsetKey][]dnswire.RR
	sigs   map[rrsetKey][]dnswire.RR
	// delegations lists child zone cuts (names with NS RRsets below the
	// apex) for referral processing.
	delegations map[string]bool

	// ksk is the key-signing key Sign derived, for DS; nil when unsigned.
	ksk *dnssec.KeyPair
}

// New creates an empty zone for origin.
func New(origin string) *Zone {
	return &Zone{
		Origin:      dnswire.CanonicalName(origin),
		rrsets:      map[rrsetKey][]dnswire.RR{},
		sigs:        map[rrsetKey][]dnswire.RR{},
		delegations: map[string]bool{},
	}
}

// SetSOA installs the apex SOA record with conventional timers.
func (z *Zone) SetSOA(primaryNS, mbox string, serial uint32, minTTL uint32) {
	z.Add(dnswire.RR{
		Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.SOAData{
			MName: dnswire.CanonicalName(primaryNS), RName: dnswire.CanonicalName(mbox),
			Serial: serial, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: minTTL,
		},
	})
}

// Add inserts a record, replacing any identical record in its RRset. Adding
// invalidates existing signatures for that RRset.
func (z *Zone) Add(rr dnswire.RR) {
	rr.Name = dnswire.CanonicalName(rr.Name)
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrsetKey{name: rr.Name, typ: rr.Type}
	set := z.rrsets[k]
	newWire, err := dnswire.PackRR(nil, rr)
	if err == nil {
		for i, existing := range set {
			if w, err2 := dnswire.PackRR(nil, existing); err2 == nil && string(w) == string(newWire) {
				set[i] = rr
				z.rrsets[k] = set
				delete(z.sigs, k)
				return
			}
		}
	}
	z.rrsets[k] = append(set, rr)
	delete(z.sigs, k)
	if rr.Type == dnswire.TypeNS && rr.Name != z.Origin && dnswire.IsSubdomain(rr.Name, z.Origin) {
		z.delegations[rr.Name] = true
	}
}

// RemoveRRset deletes the whole RRset at (name, type).
func (z *Zone) RemoveRRset(name string, t dnswire.Type) {
	name = dnswire.CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrsetKey{name: name, typ: t}
	delete(z.rrsets, k)
	delete(z.sigs, k)
	if t == dnswire.TypeNS {
		delete(z.delegations, name)
	}
}

// Lookup returns the RRset and its signatures for (name, type), deep
// copies the caller owns: an editor such as manager.PublishECH writes into
// what it looked up (data.Params.SetECH) before it adds the records back,
// and a record Query serves must never be one of those.
func (z *Zone) Lookup(name string, t dnswire.Type) (rrs, sigs []dnswire.RR, ok bool) {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	k := rrsetKey{name: name, typ: t}
	rrs, ok = z.rrsets[k]
	if !ok {
		return nil, nil, false
	}
	return cloneRRs(rrs), cloneRRs(z.sigs[k]), true
}

func cloneRRs(rrs []dnswire.RR) []dnswire.RR {
	if rrs == nil {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.Clone()
	}
	return out
}

// Sign derives the zone's KSK and ZSK from seed (dnssec.DeriveKey),
// publishes the DNSKEY RRset, and signs every RRset in the zone: the DNSKEY
// RRset with the KSK, everything else with the ZSK. Delegation NS RRsets
// (and glue) are not signed, matching authoritative behaviour. A signature
// depends on its key and its RRset alone, so the order the sets are visited
// in does not show in the result.
func (z *Zone) Sign(seed int64, inception, expiration time.Time) error {
	ksk := dnssec.DeriveKey(seed, z.Origin, true)
	zsk := dnssec.DeriveKey(seed, z.Origin, false)
	z.mu.Lock()
	defer z.mu.Unlock()
	z.ksk = ksk

	// Publish the DNSKEY RRset at the apex.
	dnskeyRRs := []dnswire.RR{ksk.DNSKEY(3600), zsk.DNSKEY(3600)}
	z.rrsets[rrsetKey{name: z.Origin, typ: dnswire.TypeDNSKEY}] = dnskeyRRs

	for k, rrs := range z.rrsets {
		if k.typ == dnswire.TypeRRSIG {
			continue
		}
		// Delegation point: NS (and DS is signed, but glue A/AAAA is not).
		if z.delegations[k.name] {
			if k.typ != dnswire.TypeDS {
				delete(z.sigs, k)
				continue
			}
		}
		signer := zsk
		if k.typ == dnswire.TypeDNSKEY {
			signer = ksk
		}
		sig, err := dnssec.SignRRset(signer, rrs, inception, expiration)
		if err != nil {
			return fmt.Errorf("zone %s: signing %s/%s: %w", z.Origin, k.name, k.typ, err)
		}
		z.sigs[k] = []dnswire.RR{sig}
	}
	return nil
}

// DS returns the delegation-signer record for this zone's KSK, for upload
// to the parent zone. It fails if the zone is unsigned.
func (z *Zone) DS() (dnswire.RR, error) {
	z.mu.RLock()
	ksk := z.ksk
	z.mu.RUnlock()
	if ksk == nil {
		return dnswire.RR{}, fmt.Errorf("zone %s: not signed", z.Origin)
	}
	return ksk.DS(3600)
}

// QueryResult is the authoritative answer for a question against one zone.
type QueryResult struct {
	RCode      dnswire.RCode
	Answer     []dnswire.RR
	Authority  []dnswire.RR
	Additional []dnswire.RR
	// Referral indicates the response is a delegation, not an
	// authoritative answer.
	Referral bool
}

// Query resolves a question against the zone's data with authoritative
// semantics. dnssecOK controls whether RRSIGs are included. Each section is
// a slice of its own, but its records' RDATA is the zone's, shared with
// every other answer: a reader copies an RR or Clones it, and never writes
// through Data. Add and RemoveRRset replace a record, never edit it, so an
// answer already served keeps what it said.
func (z *Zone) Query(name string, t dnswire.Type, dnssecOK bool) QueryResult {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()

	if !dnswire.IsSubdomain(name, z.Origin) {
		return QueryResult{RCode: dnswire.RCodeRefused}
	}

	// Delegation: if name is at or below a child zone cut, return a
	// referral with the child NS set (plus glue if present).
	if cut, ok := z.cutLocked(name, t); ok {
		ns := z.rrsets[rrsetKey{name: cut, typ: dnswire.TypeNS}]
		var ds, dsSigs []dnswire.RR
		if dnssecOK {
			dsKey := rrsetKey{name: cut, typ: dnswire.TypeDS}
			ds, dsSigs = z.rrsets[dsKey], z.sigs[dsKey]
		}
		res := QueryResult{Referral: true, Authority: slices.Concat(ns, ds, dsSigs)}
		for _, rr := range ns {
			host := rr.Data.(*dnswire.NSData).Host
			for _, gt := range [...]dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
				res.Additional = append(res.Additional, z.rrsets[rrsetKey{name: host, typ: gt}]...)
			}
		}
		return res
	}

	k := rrsetKey{name: name, typ: t}
	if rrs, ok := z.rrsets[k]; ok {
		return QueryResult{Answer: z.withSigsLocked(k, rrs, dnssecOK)}
	}

	// CNAME processing: if a CNAME exists at the name (and the query was
	// not for CNAME), return it; resolution continues at the target.
	ck := rrsetKey{name: name, typ: dnswire.TypeCNAME}
	if cname, ok := z.rrsets[ck]; ok && t != dnswire.TypeCNAME {
		res := QueryResult{Answer: z.withSigsLocked(ck, cname, dnssecOK)}
		// Chase within this zone if the target is local.
		target := dnswire.CanonicalName(cname[0].Data.(*dnswire.CNAMEData).Target)
		if dnswire.IsSubdomain(target, z.Origin) && target != name {
			sub := z.queryLocked(target, t, dnssecOK, 8)
			res.Answer = append(res.Answer, sub...)
		}
		return res
	}

	// NODATA vs NXDOMAIN.
	soaKey := rrsetKey{name: z.Origin, typ: dnswire.TypeSOA}
	authority := z.withSigsLocked(soaKey, z.rrsets[soaKey], dnssecOK)
	if z.nameExistsLocked(name) {
		return QueryResult{Authority: authority} // NODATA
	}
	return QueryResult{RCode: dnswire.RCodeNXDomain, Authority: authority}
}

// cutLocked returns the child zone cut a question for (name, t) is referred
// to: the topmost cut at or above name, so nested cuts refer the same way
// every time. A DS question at a cut itself is answered by this zone, the
// parent side (RFC 4035 §3.1.4.1). It costs one probe per label below the
// origin.
func (z *Zone) cutLocked(name string, t dnswire.Type) (cut string, ok bool) {
	for n := name; n != z.Origin; n = dnswire.ParentName(n) {
		if z.delegations[n] && (n != name || t != dnswire.TypeDS) {
			cut, ok = n, true
		}
	}
	return cut, ok
}

// withSigsLocked returns a fresh section holding the RRset rrs at k and,
// for a DO ask, its signatures behind it.
func (z *Zone) withSigsLocked(k rrsetKey, rrs []dnswire.RR, dnssecOK bool) []dnswire.RR {
	if !dnssecOK {
		return slices.Clone(rrs)
	}
	return slices.Concat(rrs, z.sigs[k])
}

func (z *Zone) nameExistsLocked(name string) bool {
	for k := range z.rrsets {
		if k.name == name || strings.HasSuffix(k.name, "."+name) {
			return true
		}
	}
	return false
}

// queryLocked performs internal CNAME chasing with a depth limit.
func (z *Zone) queryLocked(name string, t dnswire.Type, dnssecOK bool, depth int) []dnswire.RR {
	if depth == 0 {
		return nil
	}
	k := rrsetKey{name: name, typ: t}
	if rrs, ok := z.rrsets[k]; ok {
		return z.withSigsLocked(k, rrs, dnssecOK)
	}
	ck := rrsetKey{name: name, typ: dnswire.TypeCNAME}
	if cname, ok := z.rrsets[ck]; ok && t != dnswire.TypeCNAME {
		out := z.withSigsLocked(ck, cname, dnssecOK)
		target := dnswire.CanonicalName(cname[0].Data.(*dnswire.CNAMEData).Target)
		if dnswire.IsSubdomain(target, z.Origin) && target != name {
			out = append(out, z.queryLocked(target, t, dnssecOK, depth-1)...)
		}
		return out
	}
	return nil
}
