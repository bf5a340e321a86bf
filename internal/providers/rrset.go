package providers

import (
	"sync"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

// rrset is one RRset a server hands out, boxed with room for its RRSIG: the
// records and the signature sit in one array, so an unsigned ask gets the
// records and a signed one the records with the RRSIG behind them, both
// capacity-clipped and neither a copy. The box signs itself at most once, on
// its first signed ask, and is written nowhere else: a memo miss replaces
// the box. A domain's SOA boxes are carved from its provider's slab
// (Provider.soaBox), and are never written after hand-out either. zone.Zone
// keeps the root's sets beside their signatures the same way.
type rrset struct {
	all  []dnswire.RR // the records, then the RRSIG slot
	once sync.Once
	one  [2]dnswire.RR // all's array for a one-record set
}

// signer is a zone's key pair: the KSK signs its DNSKEY set, the ZSK every
// other.
type signer struct{ ksk, zsk *dnssec.KeyPair }

// Signature validity window covering the whole study with margin.
var (
	sigInception  = StudyStart.Add(-60 * 24 * time.Hour)
	sigExpiration = StudyEnd.Add(120 * 24 * time.Hour)
)

// newRRset boxes rrs.
func newRRset(rrs ...dnswire.RR) *rrset {
	s := new(rrset)
	copy(s.init(len(rrs)), rrs)
	return s
}

// init gives the box room for n records and their RRSIG, inside the box for
// one record, and returns the n record slots to fill.
func (s *rrset) init(n int) []dnswire.RR {
	if n == 1 {
		s.all = s.one[:]
	} else {
		s.all = make([]dnswire.RR, n+1)
	}
	return s.all[:n]
}

// records returns the set without its signature.
func (s *rrset) records() []dnswire.RR {
	n := len(s.all) - 1
	return s.all[:n:n]
}

// answer returns the set as an ask gets it: the records and, for a signed
// zone's DO ask (k set), their RRSIG behind them, made by the first such
// ask (dnssec.SignRRset leaves the ECDSA step to the signature's first read).
func (s *rrset) answer(k *signer) []dnswire.RR {
	if k == nil {
		return s.records()
	}
	n := len(s.all) - 1
	s.once.Do(func() {
		key := k.zsk
		if s.all[0].Type == dnswire.TypeDNSKEY {
			key = k.ksk
		}
		if sig, err := dnssec.SignRRset(key, s.all[:n], sigInception, sigExpiration); err == nil {
			s.all[n] = sig
		}
	})
	if s.all[n].Data == nil {
		return s.records()
	}
	return s.all
}

// chain joins a CNAME and its target's set into one answer: [CNAME,
// target…] and, signed, RRSIG(CNAME) and RRSIG(target) behind them. It is
// the one answer that is a copy.
func chain(alias, target *rrset, k *signer) []dnswire.RR {
	a, t := alias.answer(k), target.answer(k)
	out := make([]dnswire.RR, 0, len(a)+len(t))
	out = append(append(out, alias.records()...), target.records()...)
	return append(append(out, a[len(alias.all)-1:]...), t[len(target.all)-1:]...)
}
