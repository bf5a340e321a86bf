package providers

import (
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/simnet"
)

// Provider models one DNS service provider: its name-server fleet, HTTPS-RR
// support policy, and the synthesized authoritative service for all hosted
// customer domains.
type Provider struct {
	Name string
	// Org is the WHOIS organisation owning the NS addresses (usually the
	// provider itself; BYOIP cases differ).
	Org string
	// InfraDomain is the provider's own domain for NS host names,
	// e.g. "cloudflare-sim.com.".
	InfraDomain string
	NSHosts     []string
	NSAddrs     []netip.Addr
	// SupportsHTTPS is the provider's HTTPS-RRtype capability.
	SupportsHTTPS bool
	// HTTPSStartDay is when the provider began serving HTTPS records
	// (drives the Fig 3 upward provider-count trend).
	HTTPSStartDay time.Time
	// IsCloudflare marks the dominant provider with the proxied default.
	IsCloudflare bool
	// ECHManager, when set, is the provider's client-facing ECH key
	// manager (all of the paper's ECH configs point at Cloudflare's).
	ECHManager *ech.KeyManager
	// ECHProgramEnd is when the provider's ECH programme shut down
	// (zero = never enrolled or never ends).
	ECHProgramEnd time.Time
	// ECHPublicName is the client-facing server name in ECH configs.
	ECHPublicName string

	Clock *simnet.Clock

	mu      sync.RWMutex
	domains map[string]*DomainState

	recOnce sync.Once
	rec     nsRecords

	soas [8]atomic.Pointer[dnswire.SOAData] // recent days' SOA RDATA, by day modulo 8

	slabMu sync.Mutex
	slab   []rrset // where soaBox carves its zones' SOA boxes from
}

// nsRecords are the RDATA values that name a provider's servers, built on
// first use, and the sets of its own zone. Every NS RRset, referral, glue
// record and SOA that names the provider shares them, so they are read-only.
type nsRecords struct {
	ns    []*dnswire.NSData // per NSHosts entry
	glue  []*dnswire.AData  // per NSAddrs entry
	rname string            // SOA RNAME of the zones the provider hosts
	hosts []*rrset          // each server's A set
	infra *rrset            // the NS set of InfraDomain
}

func (p *Provider) records() *nsRecords {
	p.recOnce.Do(func() {
		infra := make([]dnswire.RR, len(p.NSHosts))
		for i, host := range p.NSHosts {
			p.rec.ns = append(p.rec.ns, &dnswire.NSData{Host: host})
			p.rec.glue = append(p.rec.glue, &dnswire.AData{Addr: p.NSAddrs[i]})
			p.rec.hosts = append(p.rec.hosts, newRRset(dnswire.RR{
				Name: host, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 3600, Data: p.rec.glue[i]}))
			infra[i] = dnswire.RR{Name: p.InfraDomain, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600, Data: p.rec.ns[i]}
		}
		p.rec.rname = "dns." + p.InfraDomain
		p.rec.infra = newRRset(infra...)
	})
	return &p.rec
}

// soaData returns the SOA RDATA the provider's zones serve on a day.
func (p *Provider) soaData(day int64) *dnswire.SOAData {
	slot := &p.soas[uint64(day)%uint64(len(p.soas))]
	data := slot.Load()
	if data == nil || data.Serial != uint32(day) {
		data = &dnswire.SOAData{MName: p.NSHosts[0], RName: p.records().rname,
			Serial: uint32(day), Refresh: 10000, Retry: 2400, Expire: 604800, Minimum: 300}
		slot.Store(data)
	}
	return data
}

// soaBox returns a fresh SOA box for one of the provider's zones, carved
// from the provider's slab, whose chunks double from 4 to 128 boxes. A
// carved box is never handed out again, so every box already served keeps
// saying what it said; a full chunk stays alive while any of its boxes does.
func (p *Provider) soaBox(rr dnswire.RR) *rrset {
	p.slabMu.Lock()
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]rrset, 0, min(max(2*cap(p.slab), 4), 128))
	}
	p.slab = p.slab[:len(p.slab)+1]
	s := &p.slab[len(p.slab)-1]
	p.slabMu.Unlock()
	s.init(1)[0] = rr
	return s
}

// newProvider creates a provider with n name servers, allocating addresses
// from alloc under the provider's org.
func newProvider(name string, alloc *simnet.Allocator, clock *simnet.Clock, supportsHTTPS bool, start time.Time) *Provider {
	infra := strings.ToLower(name) + "-dns-sim.com."
	p := &Provider{
		Name:          name,
		Org:           name,
		InfraDomain:   infra,
		SupportsHTTPS: supportsHTTPS,
		HTTPSStartDay: start,
		Clock:         clock,
		domains:       map[string]*DomainState{},
	}
	for i := 0; i < 2; i++ {
		p.NSHosts = append(p.NSHosts, "ns"+string(rune('1'+i))+"."+infra)
		p.NSAddrs = append(p.NSAddrs, alloc.AllocV4(p.Org))
	}
	return p
}

// AddDomain attaches a hosted domain.
func (p *Provider) AddDomain(d *DomainState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.domains[d.Apex] = d
}

// Domain returns the hosted domain state, if any.
func (p *Provider) Domain(apex string) (*DomainState, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d, ok := p.domains[dnswire.CanonicalName(apex)]
	return d, ok
}

// echListFor returns the ECHConfigList to embed for a domain at time t,
// or nil when the programme is inactive.
func (p *Provider) echListFor(d *DomainState, t time.Time) []byte {
	if p.ECHManager == nil || !d.ECH {
		return nil
	}
	if !p.ECHProgramEnd.IsZero() && !t.Before(p.ECHProgramEnd) {
		return nil
	}
	return p.ECHManager.ConfigList(t)
}

// HandleDNS implements simnet.DNSHandler: authoritative answers synthesized
// from the hosted domain states at the provider's own clock reading.
func (p *Provider) HandleDNS(q *dnswire.Message) *dnswire.Message {
	return p.HandleDNSAt(q, p.Clock.Now())
}

// HandleDNSAt implements simnet.DNSHandlerAt: the zone content served is a
// pure function of the hosted domain states and the supplied time, so one
// provider instance can answer for several concurrently-scanned days.
func (p *Provider) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	name := dnswire.CanonicalName(question.Name)
	apex := dnswire.ApexOf(name)

	// The provider's own infrastructure names (ns1.<infra> etc.).
	if apex == p.InfraDomain {
		return p.answerInfra(resp, name, question.Type)
	}

	p.mu.RLock()
	d, ok := p.domains[apex]
	p.mu.RUnlock()
	if !ok {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	// A provider no longer serving the domain refuses (post switch-away).
	serving := false
	for _, sp := range d.ProvidersAt(now) {
		if sp == p {
			serving = true
			break
		}
	}
	if !serving {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}

	resp.Authoritative = true
	// Only a signed zone has signatures to add, so only it pays for them.
	var k *signer
	if d.Signed && q.DNSSECOK() {
		k = d.keys()
	}
	switch alias, set := p.answerFor(d, name, question.Type, now); {
	case alias != nil:
		resp.Answer = chain(alias, set, k)
	case set != nil:
		resp.Answer = set.answer(k)
	default:
		// NODATA (the owner names we model always exist).
		if name != d.Apex && !d.isWWW(name) {
			resp.RCode = dnswire.RCodeNXDomain
		}
		resp.Authority = d.soaRRset(now).answer(k)
	}
	return resp
}

// answerFor finds the set answering (name, type) of a hosted domain, nil
// when there is none. A CNAME pathology's name is answered by its CNAME
// set: as alias ahead of its target's set, or alone when the target has
// none.
func (p *Provider) answerFor(d *DomainState, name string, t dnswire.Type, now time.Time) (alias, set *rrset) {
	isApex := name == d.Apex
	isWWW := d.isWWW(name)
	if !isApex && !isWWW {
		return nil, nil
	}
	if isWWW && !d.HasWWW {
		return nil, nil
	}

	// CNAME pathologies first: they alias every type except CNAME itself.
	if isApex && d.ApexCNAME && t != dnswire.TypeCNAME && t != dnswire.TypeNS && t != dnswire.TypeSOA && t != dnswire.TypeDNSKEY ||
		isWWW && d.WWWCNAME && !d.ApexCNAME && t != dnswire.TypeCNAME {
		alias = d.cnameRRset(name)
		if _, set = p.answerFor(d, alias.all[0].Data.(*dnswire.CNAMEData).Target, t, now); set == nil {
			return nil, alias
		}
		return alias, set
	}

	switch t {
	case dnswire.TypeA:
		return nil, d.aRRset(name, now)
	case dnswire.TypeAAAA:
		return nil, d.aaaaRRset(name)
	case dnswire.TypeHTTPS:
		if d.HTTPSPublished(now, p) {
			return nil, d.httpsRRset(name, now, p.echListFor(d, now))
		}
	case dnswire.TypeNS:
		if isApex {
			return nil, d.nsRRset(now)
		}
	case dnswire.TypeSOA:
		if isApex {
			return nil, d.soaRRset(now)
		}
	case dnswire.TypeDNSKEY:
		if isApex && d.Signed {
			d.keys()
			return nil, d.dnskey
		}
	}
	return nil, nil
}

// answerInfra serves the provider's own NS host records.
func (p *Provider) answerInfra(resp *dnswire.Message, name string, t dnswire.Type) *dnswire.Message {
	resp.Authoritative = true
	rec := p.records()
	for i, host := range p.NSHosts {
		if name == host && t == dnswire.TypeA {
			resp.Answer = rec.hosts[i].records()
		}
	}
	if name == p.InfraDomain && t == dnswire.TypeNS {
		resp.Answer = rec.infra.records()
	}
	return resp
}
