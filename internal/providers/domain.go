package providers

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/netip"
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
	ksk     *dnssec.KeyPair
	zsk     *dnssec.KeyPair
	dnskeys []dnswire.RR // the DNSKEY RRset, shared by every answer
	keySeed int64        // the world seed the keys derive from

	// sigCache holds one RRSIG per distinct RRset content served since
	// it was last cleared (it is cleared at sigCacheMax entries): the
	// records are synthesized per query from schedules, so what they say,
	// not which query asked, identifies a set. Cached RRSIGs are handed out
	// as they are (read-only), with one exception: dnssec.SignRRset defers
	// the ECDSA step, so a handed-out RRSIG fills in its own signature bytes
	// once, under its sync.Once, when something first packs or verifies it.
	sigMu    sync.Mutex
	sigCache map[[sha256.Size]byte]dnswire.RR

	// The last SOA set, referral and positive answers served; a miss
	// replaces, never writes.
	soa  atomic.Pointer[[1]dnswire.RR]
	ref  atomic.Pointer[referral]
	sets atomic.Pointer[answerSets]
}

// WWWName returns the www subdomain name.
func (d *DomainState) WWWName() string { return "www." + d.Apex }

// isWWW reports whether name is the www subdomain name, without building it.
func (d *DomainState) isWWW(name string) bool {
	return len(name) == len(d.Apex)+4 && name[:4] == "www." && name[4:] == d.Apex
}

// keys lazily derives the domain's signing keys from the world seed.
func (d *DomainState) keys() (*dnssec.KeyPair, *dnssec.KeyPair) {
	d.keyOnce.Do(func() {
		d.ksk = dnssec.DeriveKey(d.keySeed, d.Apex, true)
		d.zsk = dnssec.DeriveKey(d.keySeed, d.Apex, false)
		d.dnskeys = []dnswire.RR{d.ksk.DNSKEY(3600), d.zsk.DNSKEY(3600)}
	})
	return d.ksk, d.zsk
}

// KSK exposes the key-signing key (used by the TLD server for DS records).
func (d *DomainState) KSK() *dnssec.KeyPair {
	ksk, _ := d.keys()
	return ksk
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

// httpsRRset returns the HTTPS RRset of owner (the apex or its www name,
// canonical) at time t, with echList the provider's current ECHConfigList
// (nil when the programme is off); nil when no records exist. The set is
// memoised per owner, keyed by what it is built from: echList's identity
// and the side of H3Draft29SunsetDate t falls on.
func (d *DomainState) httpsRRset(owner string, t time.Time, echList []byte) []dnswire.RR {
	www := owner != d.Apex
	if www && !d.WWWHTTPS {
		return nil
	}
	slot := &d.answerSets().https[b2i(www)]
	preH3 := t.Before(H3Draft29SunsetDate)
	if s := slot.Load(); s != nil && s.preH3 == preH3 && sameList(s.ech, echList) {
		return s.rrs
	}
	s := d.newHTTPSSet(owner, preH3, echList)
	slot.Store(s)
	return s.rrs
}

// newHTTPSSet builds owner's HTTPS RRset for its memo key.
func (d *DomainState) newHTTPSSet(owner string, preH3 bool, echList []byte) *httpsSet {
	s := &httpsSet{ech: echList, preH3: preH3}
	rr := func(data *dnswire.SVCBData) dnswire.RR {
		return dnswire.RR{Name: owner, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: d.TTL, Data: data}
	}
	prio, target := uint16(1), "."
	var ps svcb.Params
	withHints := func() {
		if d.HintV4 {
			_ = ps.SetIPv4Hints([]netip.Addr{d.HintV4Addr()})
		}
		if d.HintV6 {
			_ = ps.SetIPv6Hints([]netip.Addr{d.AnycastV6})
		}
	}
	switch d.Profile {
	case ProfileCFDefault:
		alpn := []string{"h2", "h3"}
		if preH3 {
			alpn = append(alpn, "h3-29")
		}
		_ = ps.SetALPN(alpn)
		withHints()
		if echList != nil {
			ps.SetECH(echList)
		}
	case ProfileCFCustom, ProfileNonCFGeneric:
		if len(d.ALPN) > 0 {
			_ = ps.SetALPN(d.ALPN)
		}
		withHints()
		if echList != nil {
			ps.SetECH(echList)
		}
	case ProfileGoogle:
		if len(d.ALPN) > 0 {
			_ = ps.SetALPN(d.ALPN)
			if d.HintV4 {
				_ = ps.SetIPv4Hints([]netip.Addr{d.OriginV4})
			}
		}
	case ProfileGoDaddyAlias:
		prio, target = 0, "redirect."+d.Providers[0].InfraDomain
	case ProfileGoDaddyService:
		_ = ps.SetALPN(d.ALPN)
		_ = ps.SetIPv4Hints([]netip.Addr{d.OriginV4})
		_ = ps.SetIPv6Hints([]netip.Addr{d.OriginV6})
	case ProfileAliasSelf:
		prio = 0
	case ProfileServiceNoParams:
	case ProfilePriorityList:
		s.rrs = make([]dnswire.RR, 12)
		for i := range s.rrs {
			var ps svcb.Params
			ps.SetPort(8001 + uint16(i))
			s.rrs[i] = rr(&dnswire.SVCBData{Priority: uint16(i) + 1, Target: "geo-routing.nexuspipe-sim.com.", Params: ps})
		}
		return s
	default:
		return s
	}
	s.data = dnswire.SVCBData{Priority: prio, Target: target, Params: ps}
	s.one[0] = rr(&s.data)
	s.rrs = s.one[:]
	return s
}

// answerSets is a domain's memo of positive answers: the last HTTPS, A and
// AAAA set served for each owner, the apex at index 0 and www at 1. A set
// is an immutable box holding its key, its records and (for one record) the
// RDATA; a miss replaces the box, never writes into it.
type answerSets struct {
	https [2]atomic.Pointer[httpsSet]
	a     [2]atomic.Pointer[aSet]
	aaaa  [2]atomic.Pointer[aaaaSet]
}

// httpsSet is an HTTPS RRset and its key. It holds the ECHConfigList it
// carries, so no other list can take that list's address.
type httpsSet struct {
	ech   []byte
	preH3 bool
	rrs   []dnswire.RR
	one   [1]dnswire.RR
	data  dnswire.SVCBData
}

// aSet and aaaaSet are one-record address sets, keyed by their address.
type aSet struct {
	rr   [1]dnswire.RR
	data dnswire.AData
}

type aaaaSet struct {
	rr   [1]dnswire.RR
	data dnswire.AAAAData
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

// sigCacheMax bounds a domain's signature cache. Content changes with
// time — the SOA serial is the day number, ECH rotates HTTPS content
// every 76 minutes — so an unbounded cache would grow for the life of the
// World. Signing is RFC 6979, so a signature dropped by a clear is
// re-made byte-equal; 256 is more than twice the largest per-domain cache
// any benchmark workload builds, so none of them ever clears.
const sigCacheMax = 256

// signRRset returns the cached RRSIG over the RRset, signing on first use
// for each distinct RRset content (the ECDSA step itself waits for the
// signature's first read; see dnssec.SignRRset).
func (d *DomainState) signRRset(rrs []dnswire.RR) (dnswire.RR, bool) {
	if !d.Signed || len(rrs) == 0 {
		return dnswire.RR{}, false
	}
	_, zsk := d.keys()
	signer := zsk
	if rrs[0].Type == dnswire.TypeDNSKEY {
		signer = d.ksk
	}
	key, ok := contentKey(rrs)
	if !ok {
		return dnswire.RR{}, false
	}

	d.sigMu.Lock()
	defer d.sigMu.Unlock()
	if sig, ok := d.sigCache[key]; ok {
		return sig, true
	}
	sig, err := dnssec.SignRRset(signer, rrs, sigInception, sigExpiration)
	if err != nil {
		return dnswire.RR{}, false
	}
	if d.sigCache == nil {
		d.sigCache = map[[sha256.Size]byte]dnswire.RR{}
	} else if len(d.sigCache) >= sigCacheMax {
		clear(d.sigCache)
	}
	d.sigCache[key] = sig
	return sig, true
}

// contentKey digests an RRset's records, packed into pooled scratch, and
// their count.
func contentKey(rrs []dnswire.RR) (key [sha256.Size]byte, ok bool) {
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	wire := *bp
	for _, rr := range rrs {
		var err error
		if wire, err = dnswire.AppendPackRR(wire, rr); err != nil {
			return key, false
		}
	}
	wire = binary.BigEndian.AppendUint64(wire, uint64(len(rrs)))
	*bp = wire
	return sha256.Sum256(wire), true
}

// Signature validity window covering the whole study with margin.
var (
	sigInception  = StudyStart.Add(-60 * 24 * time.Hour)
	sigExpiration = StudyEnd.Add(120 * 24 * time.Hour)
)

// DNSKEYRRset returns the domain's DNSKEY RRset (empty when unsigned).
func (d *DomainState) DNSKEYRRset() []dnswire.RR {
	if !d.Signed {
		return nil
	}
	d.keys()
	return d.dnskeys
}

// NSRRset synthesizes the NS RRset served at time t.
func (d *DomainState) NSRRset(t time.Time) []dnswire.RR {
	ps := d.ProvidersAt(t)
	n := 0
	for _, p := range ps {
		n += len(p.NSHosts)
	}
	rrs := make([]dnswire.RR, 0, n)
	for _, p := range ps {
		for _, ns := range p.records().ns {
			rrs = append(rrs, dnswire.RR{Name: d.Apex, Type: dnswire.TypeNS,
				Class: dnswire.ClassINET, TTL: 3600, Data: ns})
		}
	}
	return rrs
}

// SOARRset returns the SOA record served at t: memoised per (primary
// provider, day), with RDATA the provider's zones share that day.
func (d *DomainState) SOARRset(t time.Time) []dnswire.RR {
	ps := d.ProvidersAt(t)
	if len(ps) == 0 {
		return nil
	}
	data := ps[0].soaData(t.Unix() / 86400)
	soa := d.soa.Load()
	if soa == nil || soa[0].Data != data {
		soa = &[1]dnswire.RR{{Name: d.Apex, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600, Data: data}}
		d.soa.Store(soa)
	}
	return soa[:]
}

// aRRset returns the A RRset of owner at t, memoised per owner and keyed by
// the address served, CurrentV4(t).
func (d *DomainState) aRRset(owner string, t time.Time) []dnswire.RR {
	addr := d.CurrentV4(t)
	slot := &d.answerSets().a[b2i(owner != d.Apex)]
	if s := slot.Load(); s != nil && s.data.Addr == addr {
		return s.rr[:]
	}
	s := &aSet{data: dnswire.AData{Addr: addr}}
	s.rr[0] = dnswire.RR{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: d.TTL, Data: &s.data}
	slot.Store(s)
	return s.rr[:]
}

// aaaaRRset returns the AAAA RRset of owner, which never changes: it is
// built once per owner.
func (d *DomainState) aaaaRRset(owner string) []dnswire.RR {
	slot := &d.answerSets().aaaa[b2i(owner != d.Apex)]
	if s := slot.Load(); s != nil {
		return s.rr[:]
	}
	s := &aaaaSet{data: dnswire.AAAAData{Addr: d.OriginV6}}
	if d.Proxied {
		s.data.Addr = d.AnycastV6
	}
	s.rr[0] = dnswire.RR{Name: owner, Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: d.TTL, Data: &s.data}
	slot.Store(s)
	return s.rr[:]
}

// String aids debugging.
func (d *DomainState) String() string {
	return fmt.Sprintf("%s profile=%d providers=%d signed=%v ech=%v", d.Apex, d.Profile,
		len(d.Providers), d.Signed, d.ECH)
}
