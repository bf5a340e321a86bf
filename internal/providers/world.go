package providers

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/resolver"
	"repro/internal/simnet"
	"repro/internal/tranco"
	"repro/internal/whois"
	"repro/internal/zone"
)

// WorldConfig parameterises world construction.
type WorldConfig struct {
	// Size is the daily Tranco list length (paper: 1M; default 20k).
	Size int
	// Seed drives all generation.
	Seed int64
}

// World is the fully wired simulated Internet: root + TLD + provider DNS
// infrastructure, the domain population with its schedules, public
// resolvers, and the WHOIS database.
type World struct {
	Cfg   WorldConfig
	Net   *simnet.Network
	Clock *simnet.Clock
	Alloc *simnet.Allocator
	Whois *whois.DB

	Tranco *tranco.Simulator

	Providers      []*Provider
	ProviderByName map[string]*Provider
	Cloudflare     *Provider

	Domains map[string]*DomainState // by canonical apex
	TLDs    map[string]*TLDServer

	RootZone *zone.Zone
	RootAddr netip.Addr
	Anchor   []dnswire.RR

	// GoogleResolver (8.8.8.8) is the primary public resolver;
	// CFResolver (1.1.1.1) is the scanner's backup.
	GoogleResolver *resolver.Resolver
	CFResolver     *resolver.Resolver
	GoogleAddr     netip.Addr
	CFResolverAddr netip.Addr

	// ECHKeys is Cloudflare's client-facing key manager
	// (cloudflare-ech.com), rotated on the virtual clock.
	ECHKeys *ech.KeyManager
}

// BuildWorld constructs the simulated ecosystem.
func BuildWorld(cfg WorldConfig) (*World, error) {
	if cfg.Size == 0 {
		cfg.Size = 20_000
	}
	clock := simnet.NewClock(StudyStart)
	w := &World{
		Cfg:            cfg,
		Clock:          clock,
		Net:            simnet.New(clock),
		Alloc:          simnet.NewAllocator(),
		TLDs:           map[string]*TLDServer{},
		ProviderByName: map[string]*Provider{},
	}
	w.Whois = whois.New(w.Alloc)
	w.Tranco = tranco.NewSimulator(cfg.Size, cfg.Seed)

	rng := rand.New(rand.NewSource(cfg.Seed))

	var err error
	w.ECHKeys, err = ech.NewKeyManager(rng, "cloudflare-ech.com",
		echRotationPeriod, echRetention, StudyStart.Add(-24*time.Hour))
	if err != nil {
		return nil, err
	}

	w.buildProviders(rng)
	if err := w.buildTLDsAndRoot(); err != nil {
		return nil, err
	}
	w.buildDomains(rng)
	w.assignSpecialPopulations(rng)
	w.buildResolvers()
	return w, nil
}

// buildProviders creates Cloudflare, the named Table 3 providers, and the
// generated long tail.
func (w *World) buildProviders(rng *rand.Rand) {
	cf := newProvider("Cloudflare", w.Alloc, w.Clock, true, StudyStart.Add(-365*24*time.Hour))
	cf.IsCloudflare = true
	cf.ECHManager = w.ECHKeys
	cf.ECHProgramEnd = ECHDisableDate
	cf.ECHPublicName = "cloudflare-ech.com"
	w.Cloudflare = cf
	w.addProvider(cf)

	for i, pw := range nonCFWeights {
		// Stagger HTTPS support start dates: about half supported from
		// the beginning, the rest switch it on during the study,
		// producing Fig 3's upward provider-count trend.
		start := StudyStart.Add(-30 * 24 * time.Hour)
		if i%2 == 1 {
			offset := time.Duration(rng.Intn(300)) * 24 * time.Hour
			start = StudyStart.Add(offset)
		}
		p := newProvider(pw.name, w.Alloc, w.Clock, true, start)
		w.addProvider(p)
	}
	// Generated tail up to the scaled distinct-provider total.
	total := scaleCount(nonCFProviderTotal, w.Cfg.Size)
	for i := len(w.Providers) - 1; i < total; i++ {
		start := StudyStart.Add(time.Duration(rng.Intn(320)) * 24 * time.Hour)
		if rng.Intn(2) == 0 {
			start = StudyStart.Add(-24 * time.Hour)
		}
		p := newProvider(fmt.Sprintf("Provider%03d", i), w.Alloc, w.Clock, true, start)
		w.addProvider(p)
	}
	// Legacy registrars without HTTPS support (hosting the bulk of
	// non-adopters and the switch-away targets).
	for _, name := range []string{"LegacyDNS", "RegistrarOne", "RegistrarTwo", "SelfHosted"} {
		p := newProvider(name, w.Alloc, w.Clock, false, time.Time{})
		w.addProvider(p)
	}
	// A pure cloud host (the AWS case): owns address space but is not a
	// DNS provider; used by the WHOIS attribution rule.
	w.Whois.RegisterOrg(whois.OrgInfo{Name: "CloudHostCo", IsCloudHost: true})
	for _, p := range w.Providers {
		w.Whois.RegisterOrg(whois.OrgInfo{Name: p.Org, IsDNSProvider: true})
	}
}

func (w *World) addProvider(p *Provider) {
	w.Providers = append(w.Providers, p)
	w.ProviderByName[p.Name] = p
	for _, addr := range p.NSAddrs {
		w.Net.RegisterDNS(addr, p)
	}
}

// buildTLDsAndRoot creates one signed TLD server per TLD in the universe
// plus the signed root zone holding their DS records.
func (w *World) buildTLDsAndRoot() error {
	w.RootAddr = netip.MustParseAddr("198.41.0.4")

	root := zone.New(".")
	root.SetSOA("a.root-sim.net.", "nstld.root-sim.net.", 1, 86400)
	root.Add(dnswire.RR{Name: ".", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 518400,
		Data: &dnswire.NSData{Host: "a.root-sim.net."}})
	root.Add(dnswire.RR{Name: "a.root-sim.net.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 518400, Data: &dnswire.AData{Addr: w.RootAddr}})

	tldSet := map[string]bool{}
	for _, d := range w.Tranco.Universe() {
		tldSet[dnswire.ParentName(dnswire.CanonicalName(d))] = true
	}
	// Provider infra domains live under com.
	tldSet["com."] = true
	// Iterate in sorted order: each TLD takes the allocator's next address,
	// so map-order iteration would number the world differently every run.
	tlds := make([]string, 0, len(tldSet))
	for tld := range tldSet {
		tlds = append(tlds, tld)
	}
	sort.Strings(tlds)

	for _, tld := range tlds {
		addr := w.Alloc.AllocV4("TLDRegistry")
		srv := newTLDServer(tld, addr, w.Clock, w.Cfg.Seed)
		w.TLDs[tld] = srv
		w.Net.RegisterDNS(addr, srv)
		root.Add(dnswire.RR{Name: tld, Type: dnswire.TypeNS, Class: dnswire.ClassINET,
			TTL: 172800, Data: &dnswire.NSData{Host: srv.Host}})
		root.Add(dnswire.RR{Name: srv.Host, Type: dnswire.TypeA, Class: dnswire.ClassINET,
			TTL: 172800, Data: &dnswire.AData{Addr: addr}})
		ds, err := srv.DS()
		if err != nil {
			return err
		}
		root.Add(ds)
	}
	if err := root.Sign(w.Cfg.Seed, sigInception, sigExpiration); err != nil {
		return err
	}
	w.RootZone = root
	rootKeys, _, _ := root.Lookup(".", dnswire.TypeDNSKEY)
	w.Anchor = rootKeys

	rootSrv := authserver.New()
	rootSrv.AddZone(root)
	w.Net.RegisterDNS(w.RootAddr, rootSrv)
	w.Net.SetRootServers([]netip.Addr{w.RootAddr})

	// Register provider infra delegations under com.
	com := w.TLDs["com."]
	for _, p := range w.Providers {
		com.AddInfra(p)
	}
	return nil
}

// buildDomains creates the DomainState population from the Tranco universe.
func (w *World) buildDomains(rng *rand.Rand) {
	core := w.Tranco.CoreSet()
	studyDays := StudyEnd.Sub(StudyStart).Hours() / 24

	// Tail adoption window: uniform adoption dates chosen so the adopted
	// fraction rises linearly from TailAdoptAtStart to TailAdoptAtEnd
	// across the study (see DESIGN.md E1).
	rate := (tailAdoptAtEnd - tailAdoptAtStart) / studyDays // per day
	windowDays := 1.0 / rate
	windowStart := StudyStart.Add(-time.Duration(tailAdoptAtStart*windowDays*24) * time.Hour)

	// Each domain draws from its own stream, math/rand's exact stream for
	// seed ^ FNV1a(apex): every stored byte about a domain follows from
	// those draws, so a source that drifted from math/rand by one value
	// would move every golden digest.
	drng := rand.New(new(streamSource))
	universe := w.Tranco.Universe()
	w.Domains = make(map[string]*DomainState, len(universe))
	for _, name := range universe {
		apex := dnswire.CanonicalName(name)
		drng.Seed(w.Cfg.Seed ^ int64(dnswire.FNV1a(apex)))
		d := &DomainState{
			Apex:    apex,
			TTL:     recordTTL,
			HasWWW:  drng.Float64() < 0.95,
			keySeed: w.Cfg.Seed,
		}
		d.OriginV4 = w.Alloc.AllocV4(originOrg(drng))
		d.OriginV6 = w.Alloc.AllocV6(originOrg(drng))
		d.AltV4 = w.Alloc.AllocV4(originOrg(drng))

		// Adoption.
		adopts := false
		if core[name] {
			adopts = drng.Float64() < coreAdoptRate
			d.AdoptDay = StudyStart.Add(-24 * time.Hour)
		} else {
			adopts = true // adoption gated purely by the date
			offset := time.Duration(drng.Float64()*windowDays*24) * time.Hour
			d.AdoptDay = windowStart.Add(offset)
		}
		if !adopts {
			d.Profile = ProfileNone
			w.assignNonAdopterProvider(d, drng)
		} else {
			w.assignAdopterConfig(d, drng)
		}

		// DNSSEC state is assigned afterwards by quota (see
		// assignSpecialPopulations) so the Table 9 ratios hold exactly
		// at any scale.

		w.Domains[apex] = d
		for _, p := range d.Providers {
			p.AddDomain(d)
		}
		tld := dnswire.ParentName(apex)
		if srv, ok := w.TLDs[tld]; ok {
			srv.AddDomain(d)
		}
	}
}

var originOrgs = [4]string{"Origin-HostA", "Origin-HostB", "Origin-HostC", "Origin-CloudHostCo"}

func originOrg(rng *rand.Rand) string { return originOrgs[rng.Intn(len(originOrgs))] }

// nonCFShare returns the probability an adopter uses non-Cloudflare NS:
// the paper's 0.11%, floored so small simulations keep a meaningful
// non-CF population (documented in EXPERIMENTS.md).
func (w *World) nonCFShare() float64 {
	share := 1 - cloudflareShare
	expectedAdopters := coreAdoptRate * float64(w.Cfg.Size)
	if expectedAdopters > 0 {
		if floor := float64(minNonCFAdopters) / expectedAdopters; floor > share {
			return floor
		}
	}
	return share
}

// assignAdopterConfig picks provider + profile + parameters for an
// HTTPS-adopting domain.
func (w *World) assignAdopterConfig(d *DomainState, rng *rand.Rand) {
	r := rng.Float64()
	switch {
	case r >= w.nonCFShare():
		d.Providers = []*Provider{w.Cloudflare}
		d.Proxied = true
		d.AnycastV4 = w.cfAnycastV4(rng)
		d.AnycastV6 = w.cfAnycastV6(rng)
		if rng.Float64() < cfDefaultShare {
			d.Profile = ProfileCFDefault
			d.HintV4, d.HintV6 = true, true
			// ECH rides the free-plan proxied default (§4.4.1).
			d.ECH = rng.Float64() < echShareOfAdopters/(cloudflareShare*cfDefaultShare)
		} else {
			d.Profile = ProfileCFCustom
			// §E.2: customised CF domains advertise h2 (98.57%), rarely
			// h3, sometimes nothing.
			cr := rng.Float64()
			switch {
			case cr < 0.9857:
				d.ALPN = []string{"h2"}
			case cr < 0.9885:
				d.ALPN = []string{"h2", "h3"}
			}
			d.HintV4 = rng.Float64() < hintShareV4
			d.HintV6 = rng.Float64() < hintShareV6
		}
	default:
		p := w.pickNonCFProvider(rng)
		d.Providers = []*Provider{p}
		d.AnycastV4, d.AnycastV6 = d.OriginV4, d.OriginV6
		switch p.Name {
		case "Google":
			d.Profile = ProfileGoogle
			if rng.Float64() >= googleEmptyParamShare {
				d.ALPN = []string{"h2"}
				d.HintV4 = rng.Float64() < 0.3
			}
		case "GoDaddy":
			if rng.Float64() < goDaddyAliasShare {
				d.Profile = ProfileGoDaddyAlias
			} else {
				d.Profile = ProfileGoDaddyService
				if rng.Float64() < 36.0/44.0 {
					d.ALPN = []string{"h2", "h3"}
				} else {
					d.ALPN = []string{"h2"}
				}
			}
		case "nexuspipe":
			d.Profile = ProfilePriorityList
		default:
			d.Profile = ProfileNonCFGeneric
			ar := rng.Float64()
			switch {
			case ar < nonCFNoneShare:
				// no alpn parameter
			case ar < nonCFNoneShare+nonCFH3Share:
				d.ALPN = []string{"h2", "h3"}
			case ar < nonCFNoneShare+nonCFH3Share+nonCFH2Share:
				d.ALPN = []string{"h2"}
			default:
				d.ALPN = []string{"http/1.1"}
			}
			d.HintV4 = rng.Float64() < 0.5
			d.HintV6 = rng.Float64() < 0.3
		}
	}
	d.WWWHTTPS = rng.Float64() < wwwGivenApex
	if d.HasWWW && rng.Float64() < 0.05 {
		d.WWWCNAME = true
	}
}

// cfAnycastV4 draws from a small pool of Cloudflare anycast addresses.
func (w *World) cfAnycastV4(rng *rand.Rand) netip.Addr {
	// A handful of shared anycast addresses, as in reality.
	n := rng.Intn(8)
	return netip.AddrFrom4([4]byte{104, 16, byte(132 + n), byte(229)})
}

func (w *World) cfAnycastV6(rng *rand.Rand) netip.Addr {
	n := byte(rng.Intn(8))
	return netip.AddrFrom16([16]byte{0x26, 0x06, 0x47, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x68, 0x10, 0x84, 0xe5 + n})
}

// pickNonCFProvider draws a non-Cloudflare HTTPS-supporting provider with
// Table 3 weighting.
func (w *World) pickNonCFProvider(rng *rand.Rand) *Provider {
	total := 0
	for _, pw := range nonCFWeights {
		total += pw.count
	}
	// The generated tail shares a modest slice.
	tailWeight := total / 4
	pick := rng.Intn(total + tailWeight)
	for _, pw := range nonCFWeights {
		if pick < pw.count {
			return w.ProviderByName[pw.name]
		}
		pick -= pw.count
	}
	// Tail providers.
	var tail []*Provider
	for _, p := range w.Providers {
		if !p.IsCloudflare && p.SupportsHTTPS && w.isTailProvider(p) {
			tail = append(tail, p)
		}
	}
	if len(tail) == 0 {
		return w.ProviderByName[nonCFWeights[0].name]
	}
	return tail[rng.Intn(len(tail))]
}

func (w *World) isTailProvider(p *Provider) bool {
	for _, pw := range nonCFWeights {
		if p.Name == pw.name {
			return false
		}
	}
	return true
}

// assignNonAdopterProvider hosts a non-adopting domain.
func (w *World) assignNonAdopterProvider(d *DomainState, rng *rand.Rand) {
	r := rng.Float64()
	switch {
	case r < 0.20:
		d.Providers = []*Provider{w.Cloudflare}
		d.AnycastV4 = w.cfAnycastV4(rng)
		d.AnycastV6 = w.cfAnycastV6(rng)
		// Not proxied (otherwise the default HTTPS record would exist).
	case r < 0.60:
		legacy := []string{"LegacyDNS", "RegistrarOne", "RegistrarTwo", "SelfHosted"}
		d.Providers = []*Provider{w.ProviderByName[legacy[rng.Intn(len(legacy))]]}
		d.AnycastV4, d.AnycastV6 = d.OriginV4, d.OriginV6
	default:
		d.Providers = []*Provider{w.pickNonCFProvider(rng)}
		d.AnycastV4, d.AnycastV6 = d.OriginV4, d.OriginV6
	}
}

// buildResolvers wires the two public resolvers. Cloudflare's is a fork of
// Google's: the same validation config and caches of its own. Both check
// signatures against dnssec's process memo, since a memo entry is a pure
// function of (public key, signature, signing-input digest).
func (w *World) buildResolvers() {
	w.GoogleAddr = netip.MustParseAddr("8.8.8.8")
	w.CFResolverAddr = netip.MustParseAddr("1.1.1.1")

	g := resolver.New(w.Net)
	g.Validate = true
	g.Anchor = w.Anchor
	w.GoogleResolver = g
	w.Net.RegisterDNS(w.GoogleAddr, g)

	w.CFResolver = g.Fork(w.Net)
	w.Net.RegisterDNS(w.CFResolverAddr, w.CFResolver)
}

// Domain returns the state for an apex (accepts names with or without the
// trailing dot).
func (w *World) Domain(apex string) (*DomainState, bool) {
	d, ok := w.Domains[dnswire.CanonicalName(apex)]
	return d, ok
}
