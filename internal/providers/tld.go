package providers

import (
	"net/netip"
	"slices"
	"sync"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// TLDServer is a synthesized top-level-domain authoritative server: it
// serves the delegation (referral + glue), the DS records of signed child
// domains that uploaded them, and its own signed apex RRsets. Compared to a
// materialised zone.Zone it holds only the compact DomainState index, which
// keeps 10^5-delegation TLDs cheap.
type TLDServer struct {
	TLD   string // e.g. "com."
	Host  string // its own NS host name
	Addr  netip.Addr
	Clock *simnet.Clock

	keys signer

	apexOnce sync.Once
	apex     tldSets

	mu      sync.RWMutex
	domains map[string]*DomainState
	infra   map[string]*Provider // provider infra domains under this TLD, by apex
	od      dnswire.OPTData      // RDATA of every referral's OPT record, not a reply's own
}

// tldSets are a TLD server's own sets: its apex NS, SOA and DNSKEY, and
// its host's glue.
type tldSets struct{ ns, soa, dnskey, glue *rrset }

// newTLDServer creates a signed TLD server whose keys derive from seed.
func newTLDServer(tld string, addr netip.Addr, clock *simnet.Clock, seed int64) *TLDServer {
	tld = dnswire.CanonicalName(tld)
	return &TLDServer{
		TLD:     tld,
		Host:    "a.nic-sim." + tld,
		Addr:    addr,
		Clock:   clock,
		keys:    signer{ksk: dnssec.DeriveKey(seed, tld, true), zsk: dnssec.DeriveKey(seed, tld, false)},
		domains: map[string]*DomainState{},
		infra:   map[string]*Provider{},
	}
}

// DS returns the TLD's own DS record for the root zone.
func (s *TLDServer) DS() (dnswire.RR, error) { return s.keys.ksk.DS(3600) }

// AddDomain registers a delegated child domain.
func (s *TLDServer) AddDomain(d *DomainState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.domains[d.Apex] = d
}

// AddInfra registers a provider's infrastructure domain under this TLD. It
// is a registrable name (one label under the TLD), which is what lookups
// probe.
func (s *TLDServer) AddInfra(p *Provider) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.infra[p.InfraDomain] = p
}

// sets returns the server's own sets, built on first use.
func (s *TLDServer) sets() *tldSets {
	s.apexOnce.Do(func() {
		s.apex = tldSets{
			ns: newRRset(dnswire.RR{Name: s.TLD, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 86400,
				Data: &dnswire.NSData{Host: s.Host}}),
			soa: newRRset(dnswire.RR{Name: s.TLD, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600,
				Data: &dnswire.SOAData{MName: s.Host, RName: "nstld.nic-sim" + "." + s.TLD,
					Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400}}),
			dnskey: newRRset(s.keys.ksk.DNSKEY(3600), s.keys.zsk.DNSKEY(3600)),
			glue: newRRset(dnswire.RR{Name: s.Host, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 86400,
				Data: &dnswire.AData{Addr: s.Addr}}),
		}
	})
	return &s.apex
}

// HandleDNS implements simnet.DNSHandler at the server's own clock reading.
func (s *TLDServer) HandleDNS(q *dnswire.Message) *dnswire.Message {
	return s.HandleDNSAt(q, s.Clock.Now())
}

// HandleDNSAt implements simnet.DNSHandlerAt: referrals are a pure function
// of the delegation index and the supplied time (NS churn schedules), so
// concurrent per-day network views share one TLD server instance.
func (s *TLDServer) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	name := dnswire.CanonicalName(question.Name)
	var k *signer
	if q.DNSSECOK() {
		k = &s.keys
	}

	if !dnswire.IsSubdomain(name, s.TLD) {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	own := s.sets()

	// TLD apex.
	if name == s.TLD {
		resp.Authoritative = true
		var set *rrset
		switch question.Type {
		case dnswire.TypeNS:
			set = own.ns
		case dnswire.TypeSOA:
			set = own.soa
		case dnswire.TypeDNSKEY:
			set = own.dnskey
		}
		if set == nil {
			// NODATA: the apex itself has no A, say (its server a.nic-sim.<tld>
			// is below it).
			resp.Authority = own.soa.records()
			return resp
		}
		resp.Answer = set.answer(k)
		return resp
	}

	// Own NS host glue.
	if name == s.Host && question.Type == dnswire.TypeA {
		resp.Authoritative = true
		resp.Answer = own.glue.records()
		return resp
	}

	// Provider infrastructure delegations, then customer domains: both are
	// indexed by registrable apex.
	apex := dnswire.ApexOf(name)
	s.mu.RLock()
	infraProv := s.infra[apex]
	d, ok := s.domains[apex]
	s.mu.RUnlock()
	if infraProv != nil {
		resp.Authority, resp.Additional = s.delegation(apex, resp.Additional, infraProv)
		return resp
	}
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authoritative = true
		resp.Authority = own.soa.answer(k)
		return resp
	}

	// DS at the delegation point: answered authoritatively by the parent.
	if name == apex && question.Type == dnswire.TypeDS {
		resp.Authoritative = true
		if ds := d.uploadedDS(); ds != nil {
			resp.Answer = ds.answer(k)
		} else {
			// No DS: NODATA with (signed) SOA — provably unsigned delegation.
			resp.Authority = own.soa.answer(k)
		}
		return resp
	}

	// Regular delegation referral.
	ps := d.ProvidersAt(now)
	if len(ps) == 0 {
		// The domain transiently has no NS records (§4.2.3).
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Authority, resp.Additional = s.referral(d, ps, resp.Additional)
	if ds := d.uploadedDS(); ds != nil && k != nil {
		resp.Authority = append(resp.Authority, ds.answer(k)...) // clipped, so a fresh array
	}
	return resp
}

// referral is a child's delegation as built for a provider arrangement and OPT.
type referral struct {
	ps                    []*Provider
	authority, additional []dnswire.RR
}

// referral returns the child's delegation sections to ps for a reply
// carrying opt, from its memo when built for the same arrangement and OPT.
func (s *TLDServer) referral(d *DomainState, ps []*Provider, opt []dnswire.RR) (authority, additional []dnswire.RR) {
	r := d.ref.Load()
	if r == nil || !slices.Equal(r.ps, ps) || !slices.EqualFunc(r.additional[len(r.authority):], opt,
		func(a, b dnswire.RR) bool { return a.Class == b.Class && a.TTL == b.TTL }) {
		r = &referral{ps: ps}
		r.authority, r.additional = s.delegation(d.Apex, opt, ps...)
		d.ref.Store(r)
	}
	return r.authority, r.additional
}

// delegation builds a referral's sections for child at the given providers:
// an NS record per server, and its glue, last server first, ahead of the
// OPT record. Both are clipped parts of one array, so an append moves.
func (s *TLDServer) delegation(child string, opt []dnswire.RR, ps ...*Provider) (authority, additional []dnswire.RR) {
	n := 0
	for _, p := range ps {
		n += len(p.NSHosts)
	}
	rrs := make([]dnswire.RR, 2*n+len(opt))
	authority, additional = rrs[:n:n], rrs[n:]
	k := 0
	for _, p := range ps {
		rec := p.records()
		for i, host := range p.NSHosts {
			authority[k] = dnswire.RR{
				Name: child, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 86400, Data: rec.ns[i]}
			k++
			additional[n-k] = dnswire.RR{
				Name: host, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 86400, Data: rec.glue[i]}
		}
	}
	if len(opt) > 0 {
		additional[n] = opt[0]
		additional[n].Data = &s.od
	}
	return authority, additional
}

// Ensure interface satisfaction.
var (
	_ simnet.DNSHandler   = (*TLDServer)(nil)
	_ simnet.DNSHandler   = (*Provider)(nil)
	_ simnet.DNSHandlerAt = (*TLDServer)(nil)
	_ simnet.DNSHandlerAt = (*Provider)(nil)
)
