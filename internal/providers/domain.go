package providers

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/svcb"
)

// HTTPSProfile selects how a domain's HTTPS records are shaped, mirroring
// the configuration clusters the paper observes per provider.
type HTTPSProfile int

// Profiles.
const (
	// ProfileNone: the domain publishes no HTTPS records.
	ProfileNone HTTPSProfile = iota
	// ProfileCFDefault: Cloudflare's untouched proxied default:
	// "1 . alpn=h2,h3 ipv4hint=<anycast> ipv6hint=<anycast>" (§4.3.1).
	ProfileCFDefault
	// ProfileCFCustom: a Cloudflare-hosted domain with customised records.
	ProfileCFCustom
	// ProfileGoogle: ServiceMode, TargetName ".", usually no SvcParams
	// (Table 5).
	ProfileGoogle
	// ProfileGoDaddyAlias: AliasMode to an alternative endpoint (Table 5).
	ProfileGoDaddyAlias
	// ProfileGoDaddyService: the GoDaddy ServiceMode minority (h2/h3 +
	// both hints).
	ProfileGoDaddyService
	// ProfileNonCFGeneric: other providers with the §4.3.4 alpn mix.
	ProfileNonCFGeneric
	// ProfileAliasSelf: the §E.1 pathology — AliasMode with "." target.
	ProfileAliasSelf
	// ProfileServiceNoParams: ServiceMode with an empty SvcParams (§E.1).
	ProfileServiceNoParams
	// ProfilePriorityList: the nexuspipe pattern — twelve records with
	// priorities 1..12, each with a port (§E.1).
	ProfilePriorityList
)

// IntermittencyKind classifies why a domain's HTTPS records come and go
// (§4.2.3).
type IntermittencyKind int

// Intermittency kinds.
const (
	IntermitNone IntermittencyKind = iota
	// IntermitProxiedToggle: same Cloudflare NS, proxied option toggled.
	IntermitProxiedToggle
	// IntermitMultiProvider: a provider mix where not every provider
	// supports HTTPS; which one the resolver hits varies by day.
	IntermitMultiProvider
	// IntermitSwitchAway: the domain moved from Cloudflare to a non-CF
	// provider and lost its records.
	IntermitSwitchAway
	// IntermitNoNS: the domain transiently loses its NS records entirely.
	IntermitNoNS
)

// interval is a half-open time range [From, To).
type interval struct{ From, To time.Time }

func (iv interval) contains(t time.Time) bool {
	return !t.Before(iv.From) && t.Before(iv.To)
}

func inAny(eps []interval, t time.Time) bool {
	for _, iv := range eps {
		if iv.contains(t) {
			return true
		}
	}
	return false
}

// DomainState is the compact generative configuration of one apex domain.
// Authoritative answers are synthesized from it on demand, which keeps a
// 10^5-domain world cheap in memory.
type DomainState struct {
	Apex string // canonical, e.g. "site000123.com."

	// Addresses. Origin* are the customer's own servers; Anycast* are the
	// provider proxy addresses served when the domain is proxied.
	OriginV4  netip.Addr
	OriginV6  netip.Addr
	AnycastV4 netip.Addr
	AnycastV6 netip.Addr
	// AltV4 is the address the A record moves to during an IP-hint
	// mismatch episode (the hint keeps pointing at the old address).
	AltV4 netip.Addr

	// Providers in priority order. Usually one; multi-provider mixes and
	// switch-away domains carry more with schedule fields below.
	Providers []*Provider
	// SwitchDay, when set, moves the domain from Providers[0] to
	// Providers[1] for good.
	SwitchDay time.Time
	// NoNSEpisodes are windows where the domain has no NS records at all.
	NoNSEpisodes []interval

	// Adoption and intermittency.
	AdoptDay     time.Time
	Profile      HTTPSProfile
	Intermittent IntermittencyKind
	OffEpisodes  []interval // proxied-toggle off windows

	HasWWW   bool
	WWWHTTPS bool
	// WWWCNAME makes www a CNAME to the apex.
	WWWCNAME bool
	// ApexCNAME makes the apex answer with an (illegal) CNAME to www.
	ApexCNAME bool

	// Parameters.
	ECH     bool // participates in the provider ECH programme
	HintV4  bool
	HintV6  bool
	ALPN    []string // nil means no alpn parameter
	Proxied bool     // Cloudflare proxied toggle state (when on, A serves anycast)
	TTL     uint32

	// IP-hint mismatch schedule (§4.3.5): during an episode the A record
	// serves AltV4 while ipv4hint still carries the pre-move address.
	MismatchEpisodes []interval
	// During a mismatch, which side still accepts TLS connections.
	HintReachable bool
	AReachable    bool

	// DNSSEC.
	Signed     bool
	DSUploaded bool

	keyOnce sync.Once
	key     signer
	keySeed int64 // the world seed the keys derive from
	// The DNSKEY set and, when uploaded, the DS set the TLD serves: built
	// with the keys.
	dnskey, ds *rrset

	// The answer memos; a miss replaces a box, never writes into it. SOA
	// sets sit in the slot of their day modulo 4, so day workers on
	// neighbouring days keep each other's.
	soa  [4]atomic.Pointer[rrset]
	ns   atomic.Pointer[nsSet]
	ref  atomic.Pointer[referral]
	sets atomic.Pointer[answerSets]
}

// WWWName returns the www subdomain name.
func (d *DomainState) WWWName() string { return "www." + d.Apex }

// isWWW reports whether name is the www subdomain name, without building it.
func (d *DomainState) isWWW(name string) bool {
	return len(name) == len(d.Apex)+4 && name[:4] == "www." && name[4:] == d.Apex
}

// keys lazily derives the domain's signing keys from the world seed, and
// with them its DNSKEY set and, when uploaded, its DS set.
func (d *DomainState) keys() *signer {
	d.keyOnce.Do(func() {
		d.key = signer{ksk: dnssec.DeriveKey(d.keySeed, d.Apex, true), zsk: dnssec.DeriveKey(d.keySeed, d.Apex, false)}
		d.dnskey = newRRset(d.key.ksk.DNSKEY(3600), d.key.zsk.DNSKEY(3600))
		if ds, err := d.key.ksk.DS(3600); d.DSUploaded && err == nil {
			d.ds = newRRset(ds)
		}
	})
	return &d.key
}

// ProvidersAt returns the provider list serving the domain at time t, in
// the order a resolver would try them. Multi-provider domains rotate daily,
// modelling public resolvers' server-selection variability (§4.2.3).
func (d *DomainState) ProvidersAt(t time.Time) []*Provider {
	if inAny(d.NoNSEpisodes, t) {
		return nil
	}
	if !d.SwitchDay.IsZero() && !t.Before(d.SwitchDay) && len(d.Providers) > 1 {
		return d.Providers[1:2]
	}
	ps := d.Providers
	if d.Intermittent == IntermitMultiProvider && len(ps) > 1 {
		// The domain drifts between provider arrangements day to day:
		// primary only, secondary-first, or primary-first. Which provider
		// a resolver reaches first determines whether HTTPS records are
		// served (§4.2.3), and the NS set itself changes across days.
		switch int(t.Unix()/86400) % 3 {
		case 0:
			return ps[:1]
		case 1:
			out := make([]*Provider, 0, len(ps))
			out = append(out, ps[1:]...)
			return append(out, ps[0])
		default:
			return ps
		}
	}
	if !d.SwitchDay.IsZero() && len(d.Providers) > 1 {
		return d.Providers[:1]
	}
	return ps
}

// HTTPSPublished reports whether the domain's HTTPS records exist in the
// zone data served by provider p at time t.
func (d *DomainState) HTTPSPublished(t time.Time, p *Provider) bool {
	if d.Profile == ProfileNone || t.Before(d.AdoptDay) {
		return false
	}
	if p != nil && (!p.SupportsHTTPS || t.Before(p.HTTPSStartDay)) {
		return false
	}
	if d.Intermittent == IntermitProxiedToggle && inAny(d.OffEpisodes, t) {
		return false
	}
	return true
}

// InMismatch reports whether t falls inside an IP-hint mismatch episode.
func (d *DomainState) InMismatch(t time.Time) bool {
	return inAny(d.MismatchEpisodes, t)
}

// CurrentV4 returns the address served in the apex A record at time t.
func (d *DomainState) CurrentV4(t time.Time) netip.Addr {
	if d.Proxied {
		if d.InMismatch(t) {
			return d.AltV4
		}
		return d.AnycastV4
	}
	if d.InMismatch(t) {
		return d.AltV4
	}
	return d.OriginV4
}

// HintV4Addr returns the address published in ipv4hint. It does not move
// with time: during a mismatch episode the hint lags behind the A record.
func (d *DomainState) HintV4Addr() netip.Addr {
	if d.Proxied {
		return d.AnycastV4
	}
	return d.OriginV4
}

// httpsRRset returns the HTTPS set of owner (the apex or its www name,
// canonical) at time t, with echList the provider's current ECHConfigList
// (nil when the programme is off); nil when no records exist. The set is
// memoised per owner, keyed by what it is built from: echList's identity
// and the side of H3Draft29SunsetDate t falls on.
func (d *DomainState) httpsRRset(owner string, t time.Time, echList []byte) *rrset {
	www := owner != d.Apex
	if www && !d.WWWHTTPS {
		return nil
	}
	slot := &d.answerSets().https[b2i(www)]
	preH3 := t.Before(H3Draft29SunsetDate)
	if s := slot.Load(); s != nil && s.preH3 == preH3 && sameList(s.ech, echList) {
		return &s.rrset
	}
	s := d.newHTTPSSet(owner, preH3, echList)
	if s == nil {
		return nil
	}
	slot.Store(s)
	return &s.rrset
}

// ProfileCFDefault's two alpn values, "h2,h3" and, before the h3-29
// sunset, "h2,h3,h3-29", in wire form. Every set rebuilt at an ECH rotation
// shares them; served records are read-only.
var (
	cfALPN      = []byte("\x02h2\x02h3")
	cfALPNPreH3 = []byte("\x02h2\x02h3\x05h3-29")
)

// newHTTPSSet builds owner's HTTPS set for its memo key; nil for a profile
// that publishes none. A one-record set's parameters and hint values live in
// the set itself, so a rebuild at an ECH rotation is one allocation.
func (d *DomainState) newHTTPSSet(owner string, preH3 bool, echList []byte) *httpsSet {
	s := &httpsSet{ech: echList, preH3: preH3}
	rr := func(data *dnswire.SVCBData) dnswire.RR {
		return dnswire.RR{Name: owner, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: d.TTL, Data: data}
	}
	prio, target := uint16(1), "."
	ps := svcb.Params(s.params[:0])
	switch d.Profile {
	case ProfileCFDefault:
		alpn := cfALPN
		if preH3 {
			alpn = cfALPNPreH3
		}
		ps.Set(svcb.KeyALPN, alpn)
		s.setHints(&ps, d.HintV4, d.HintV6, d.HintV4Addr(), d.AnycastV6)
		if echList != nil {
			ps.SetECH(echList)
		}
	case ProfileCFCustom, ProfileNonCFGeneric:
		if len(d.ALPN) > 0 {
			_ = ps.SetALPN(d.ALPN)
		}
		s.setHints(&ps, d.HintV4, d.HintV6, d.HintV4Addr(), d.AnycastV6)
		if echList != nil {
			ps.SetECH(echList)
		}
	case ProfileGoogle:
		if len(d.ALPN) > 0 {
			_ = ps.SetALPN(d.ALPN)
			s.setHints(&ps, d.HintV4, false, d.OriginV4, netip.Addr{})
		}
	case ProfileGoDaddyAlias:
		prio, target = 0, "redirect."+d.Providers[0].InfraDomain
	case ProfileGoDaddyService:
		_ = ps.SetALPN(d.ALPN)
		s.setHints(&ps, true, true, d.OriginV4, d.OriginV6)
	case ProfileAliasSelf:
		prio = 0
	case ProfileServiceNoParams:
	case ProfilePriorityList:
		rrs := s.init(12)
		for i := range rrs {
			var ps svcb.Params
			ps.SetPort(8001 + uint16(i))
			rrs[i] = rr(&dnswire.SVCBData{Priority: uint16(i) + 1, Target: "geo-routing.nexuspipe-sim.com.", Params: ps})
		}
		return s
	default:
		return nil
	}
	s.data = dnswire.SVCBData{Priority: prio, Target: target, Params: ps}
	s.init(1)[0] = rr(&s.data)
	return s
}

// setHints sets ps's ipv4hint to v4 and its ipv6hint to v6, each when asked
// for, with s.hints holding the values.
func (s *httpsSet) setHints(ps *svcb.Params, withV4, withV6 bool, v4, v6 netip.Addr) {
	if withV4 {
		_ = ps.SetHintsIn(svcb.KeyIPv4Hint, s.hints[:4:4], []netip.Addr{v4})
	}
	if withV6 {
		_ = ps.SetHintsIn(svcb.KeyIPv6Hint, s.hints[4:], []netip.Addr{v6})
	}
}

// answerSets is a domain's memo of positive answers: the last HTTPS, A and
// AAAA set served for each owner, and its CNAME, the apex at index 0 and www
// at 1. A set's box holds its key and, for one record, the RDATA too.
type answerSets struct {
	https [2]atomic.Pointer[httpsSet]
	a     [2]atomic.Pointer[aSet]
	aaaa  [2]atomic.Pointer[aaaaSet]
	cname [2]atomic.Pointer[rrset]
}

// httpsSet is an HTTPS set and its key. It holds the ECHConfigList it
// carries, so no other list can take that list's address. A one-record set's
// RDATA, its parameter list (alpn, ipv4hint, ech, ipv6hint) and its hint
// values (the IPv4 address, then the IPv6 one) sit in the box too.
type httpsSet struct {
	rrset
	ech    []byte
	preH3  bool
	data   dnswire.SVCBData
	params [4]svcb.Param
	hints  [4 + 16]byte
}

// aSet and aaaaSet are one-record address sets, keyed by their address.
type aSet struct {
	rrset
	data dnswire.AData
}

type aaaaSet struct {
	rrset
	data dnswire.AAAAData
}

// nsSet is an NS set and the provider arrangement it names.
type nsSet struct {
	rrset
	ps []*Provider
}

// answerSets returns the domain's memo table, made on first use.
func (d *DomainState) answerSets() *answerSets {
	if m := d.sets.Load(); m != nil {
		return m
	}
	d.sets.CompareAndSwap(nil, new(answerSets))
	return d.sets.Load()
}

// sameList reports whether a and b are one ECHConfigList: both nil, or the
// same bytes at the same address.
func sameList(a, b []byte) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nsRRset returns the NS set served at t, memoised per provider
// arrangement.
func (d *DomainState) nsRRset(t time.Time) *rrset {
	ps := d.ProvidersAt(t)
	if s := d.ns.Load(); s != nil && slices.Equal(s.ps, ps) {
		return &s.rrset
	}
	n := 0
	for _, p := range ps {
		n += len(p.NSHosts)
	}
	s := &nsSet{ps: ps}
	rrs := s.init(n)
	for _, p := range ps {
		for _, ns := range p.records().ns {
			rrs[0] = dnswire.RR{Name: d.Apex, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600, Data: ns}
			rrs = rrs[1:]
		}
	}
	d.ns.Store(s)
	return &s.rrset
}

// soaRRset returns the SOA set served at t, memoised per (primary provider,
// day) in the slot of its day, with RDATA the provider's zones share that
// day. A miss stores a new box carved from that provider's slab.
func (d *DomainState) soaRRset(t time.Time) *rrset {
	ps := d.ProvidersAt(t)
	if len(ps) == 0 {
		return nil
	}
	day := t.Unix() / 86400
	data := ps[0].soaData(day)
	slot := &d.soa[uint64(day)%uint64(len(d.soa))]
	s := slot.Load()
	if s == nil || s.all[0].Data != data {
		s = ps[0].soaBox(dnswire.RR{Name: d.Apex, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600, Data: data})
		slot.Store(s)
	}
	return s
}

// aRRset returns the A set of owner at t, memoised per owner and keyed by
// the address served, CurrentV4(t).
func (d *DomainState) aRRset(owner string, t time.Time) *rrset {
	addr := d.CurrentV4(t)
	slot := &d.answerSets().a[b2i(owner != d.Apex)]
	if s := slot.Load(); s != nil && s.data.Addr == addr {
		return &s.rrset
	}
	s := &aSet{data: dnswire.AData{Addr: addr}}
	s.init(1)[0] = dnswire.RR{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: d.TTL, Data: &s.data}
	slot.Store(s)
	return &s.rrset
}

// aaaaRRset returns the AAAA set of owner, which never changes: it is built
// once per owner.
func (d *DomainState) aaaaRRset(owner string) *rrset {
	slot := &d.answerSets().aaaa[b2i(owner != d.Apex)]
	if s := slot.Load(); s != nil {
		return &s.rrset
	}
	s := &aaaaSet{data: dnswire.AAAAData{Addr: d.OriginV6}}
	if d.Proxied {
		s.data.Addr = d.AnycastV6
	}
	s.init(1)[0] = dnswire.RR{Name: owner, Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: d.TTL, Data: &s.data}
	slot.Store(s)
	return &s.rrset
}

// cnameRRset returns the CNAME set of a pathology owner, which never
// changes: the apex aliases www and www the apex.
func (d *DomainState) cnameRRset(owner string) *rrset {
	www := owner != d.Apex
	slot := &d.answerSets().cname[b2i(www)]
	if s := slot.Load(); s != nil {
		return s
	}
	target := d.Apex
	if !www {
		target = d.WWWName()
	}
	s := newRRset(dnswire.RR{Name: owner, Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: d.TTL,
		Data: &dnswire.CNAMEData{Target: target}})
	slot.Store(s)
	return s
}

// uploadedDS returns the DS set the registrant of a signed domain uploaded,
// if any.
func (d *DomainState) uploadedDS() *rrset {
	if !d.Signed || !d.DSUploaded {
		return nil
	}
	d.keys()
	return d.ds
}

// String aids debugging.
func (d *DomainState) String() string {
	return fmt.Sprintf("%s profile=%d providers=%d signed=%v ech=%v", d.Apex, d.Profile,
		len(d.Providers), d.Signed, d.ECH)
}
