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
}

// nsRecords are the RDATA values that name a provider's servers, built on
// first use. Every NS RRset, referral, glue record and SOA that names the
// provider shares them, so they are read-only.
type nsRecords struct {
	ns    []*dnswire.NSData // per NSHosts entry
	glue  []*dnswire.AData  // per NSAddrs entry
	rname string            // SOA RNAME of the zones the provider hosts
}

func (p *Provider) records() *nsRecords {
	p.recOnce.Do(func() {
		for i, host := range p.NSHosts {
			p.rec.ns = append(p.rec.ns, &dnswire.NSData{Host: host})
			p.rec.glue = append(p.rec.glue, &dnswire.AData{Addr: p.NSAddrs[i]})
		}
		p.rec.rname = "dns." + p.InfraDomain
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

// NewProvider creates a provider with n name servers, allocating addresses
// from alloc under the provider's org.
func NewProvider(name string, alloc *simnet.Allocator, clock *simnet.Clock, supportsHTTPS bool, start time.Time) *Provider {
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
	sign := d.Signed && q.DNSSECOK()
	rrs := p.answerFor(d, name, question.Type, now)
	if len(rrs) == 0 {
		// NODATA (the owner names we model always exist).
		if name != d.Apex && !d.isWWW(name) {
			resp.RCode = dnswire.RCodeNXDomain
		}
		rrs = d.SOARRset(now)
		if sign {
			rrs = appendSigs(d, rrs)
		}
		resp.Authority = rrs
		return resp
	}
	if sign {
		rrs = appendSigs(d, rrs)
	}
	resp.Answer = rrs
	return resp
}

// appendSigs returns a copy of the answer with an RRSIG appended for each
// of its RRsets. An answer is one RRset, or a CNAME followed by its target's:
// each run of records with one owner and type is a set.
func appendSigs(d *DomainState, rrs []dnswire.RR) []dnswire.RR {
	out := make([]dnswire.RR, len(rrs), len(rrs)+2)
	copy(out, rrs)
	for start := 0; start < len(rrs); {
		end := start + 1
		for end < len(rrs) && rrs[end].Type == rrs[start].Type && rrs[end].Name == rrs[start].Name {
			end++
		}
		if sig, ok := d.signRRset(rrs[start:end]); ok {
			out = append(out, sig)
		}
		start = end
	}
	return out
}

// answerFor synthesizes the answer RRs for (name, type) of a hosted domain.
func (p *Provider) answerFor(d *DomainState, name string, t dnswire.Type, now time.Time) []dnswire.RR {
	isApex := name == d.Apex
	isWWW := d.isWWW(name)
	if !isApex && !isWWW {
		return nil
	}
	if isWWW && !d.HasWWW {
		return nil
	}

	// CNAME pathologies first: they alias every type except CNAME itself.
	if isApex && d.ApexCNAME && t != dnswire.TypeCNAME && t != dnswire.TypeNS &&
		t != dnswire.TypeSOA && t != dnswire.TypeDNSKEY {
		cname := dnswire.RR{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassINET,
			TTL: d.TTL, Data: &dnswire.CNAMEData{Target: d.WWWName()}}
		out := []dnswire.RR{cname}
		return append(out, p.answerFor(d, d.WWWName(), t, now)...)
	}
	if isWWW && d.WWWCNAME && !d.ApexCNAME && t != dnswire.TypeCNAME {
		cname := dnswire.RR{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassINET,
			TTL: d.TTL, Data: &dnswire.CNAMEData{Target: d.Apex}}
		out := []dnswire.RR{cname}
		return append(out, p.answerFor(d, d.Apex, t, now)...)
	}

	switch t {
	case dnswire.TypeA:
		return d.ARRset(name, now)
	case dnswire.TypeAAAA:
		return d.AAAARRset(name)
	case dnswire.TypeHTTPS:
		if !d.HTTPSPublished(now, p) {
			return nil
		}
		return d.BuildHTTPSRecords(name, now, p.echListFor(d, now))
	case dnswire.TypeNS:
		if isApex {
			return d.NSRRset(now)
		}
	case dnswire.TypeSOA:
		if isApex {
			return d.SOARRset(now)
		}
	case dnswire.TypeDNSKEY:
		if isApex {
			return d.DNSKEYRRset()
		}
	}
	return nil
}

// answerInfra serves the provider's own NS host records.
func (p *Provider) answerInfra(resp *dnswire.Message, name string, t dnswire.Type) *dnswire.Message {
	resp.Authoritative = true
	rec := p.records()
	for i, host := range p.NSHosts {
		if name == host && t == dnswire.TypeA {
			resp.Answer = append(resp.Answer, dnswire.RR{
				Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 3600, Data: rec.glue[i]})
		}
	}
	if name == p.InfraDomain && t == dnswire.TypeNS {
		for _, ns := range rec.ns {
			resp.Answer = append(resp.Answer, dnswire.RR{
				Name: name, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600, Data: ns})
		}
	}
	return resp
}
