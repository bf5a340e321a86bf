package browser

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/analysis"
	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/simnet"
	"repro/internal/svcb"
	"repro/internal/transport"
	"repro/internal/webserver"
	"repro/internal/zone"
)

// Support grades one browser's handling of one scenario, matching the
// paper's full/half/empty circles.
type Support int

// Support levels.
const (
	SupportNone Support = iota
	SupportPartial
	SupportFull
)

// Mark renders the paper's circle notation in ASCII.
func (s Support) Mark() string {
	switch s {
	case SupportFull:
		return "●"
	case SupportPartial:
		return "◐"
	default:
		return "○"
	}
}

// Lab is one instance of the §5 testbed: a controlled DNS zone (the paper's
// BIND9 on AWS), web endpoints (Nginx+OpenSSL ECH), and a resolver address
// the browser under test queries.
type Lab struct {
	Net      *simnet.Network
	Clock    *simnet.Clock
	Auth     *authserver.Server
	Resolver netip.Addr
	ZoneA    *zone.Zone // a.com
	ZoneB    *zone.Zone // b.com (split-mode client-facing)

	// Fixed testbed addresses.
	Web1, Web2, HintAddr netip.Addr

	// KM is the current ECH key manager; StaleKM generates configs the
	// web server no longer accepts (key-mismatch scenario).
	KM, StaleKM *ech.KeyManager

	// DoH, when set by EnableDoH, is the lab's encrypted-DNS stub config:
	// Visit hands its client to browsers whose behaviour requires DoH
	// (Firefox), so their HTTPS-RR queries ride a real transport frontend
	// instead of talking to the resolver directly — the Table 6 scenarios
	// over encrypted transport.
	DoH *transport.Fleet
}

// NewLab builds a fresh testbed.
func NewLab() *Lab {
	clock := simnet.NewClock(time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC))
	l := &Lab{
		Net:      simnet.New(clock),
		Clock:    clock,
		Auth:     authserver.New(),
		Resolver: netip.MustParseAddr("9.9.9.9"),
		Web1:     netip.MustParseAddr("10.99.0.1"),
		Web2:     netip.MustParseAddr("10.99.0.2"),
		HintAddr: netip.MustParseAddr("10.99.0.3"),
	}
	l.ZoneA = zone.New("a.com")
	l.ZoneA.SetSOA("ns1.a.com.", "hostmaster.a.com.", 1, 60)
	l.ZoneA.Add(dnswire.RR{Name: "a.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
		TTL: 3600, Data: &dnswire.NSData{Host: "ns1.a.com."}})
	l.ZoneB = zone.New("b.com")
	l.ZoneB.SetSOA("ns1.b.com.", "hostmaster.b.com.", 1, 60)
	l.ZoneB.Add(dnswire.RR{Name: "b.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
		TTL: 3600, Data: &dnswire.NSData{Host: "ns1.b.com."}})
	l.Auth.AddZone(l.ZoneA)
	l.Auth.AddZone(l.ZoneB)
	l.Net.RegisterDNS(l.Resolver, l.Auth)

	rng := rand.New(rand.NewSource(99))
	l.KM, _ = ech.NewKeyManager(rng, "cover.a.com", time.Hour, 2*time.Hour, clock.Now().Add(-time.Hour))
	l.StaleKM, _ = ech.NewKeyManager(rng, "cover.a.com", time.Hour, 2*time.Hour, clock.Now().Add(-time.Hour))
	return l
}

// A adds an A record to the appropriate zone.
func (l *Lab) A(name string, addr netip.Addr) {
	z := l.ZoneA
	if dnswire.IsSubdomain(name, "b.com.") {
		z = l.ZoneB
	}
	z.Add(dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.AData{Addr: addr}})
}

// HTTPS adds an HTTPS record built from presentation-format params.
func (l *Lab) HTTPS(name string, priority uint16, target string, params svcb.Params) {
	z := l.ZoneA
	if dnswire.IsSubdomain(name, "b.com.") {
		z = l.ZoneB
	}
	z.Add(dnswire.RR{Name: name, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.SVCBData{Priority: priority, Target: target, Params: params}})
}

// Endpoint registers a TLS endpoint.
func (l *Lab) Endpoint(addr netip.Addr, port uint16, ep *webserver.Endpoint) *webserver.Endpoint {
	ep.Clock = l.Clock
	ep.Register(l.Net, addr, port)
	return ep
}

// HTTPPort80 registers a plaintext endpoint so legacy HTTP connections
// succeed.
func (l *Lab) HTTPPort80(addr netip.Addr) {
	l.Net.RegisterService(netip.AddrPortFrom(addr, 80), &webserver.Endpoint{HTTPOnly: true})
}

// DoHAddr is the fixed address the lab's DoH stub frontend serves on.
var DoHAddr = netip.AddrPortFrom(netip.MustParseAddr("10.99.0.53"), 443)

// EnableDoH stands up the lab's encrypted-DNS stub config: one DoH
// frontend (the testbed's dns.google stand-in) wrapping the lab's
// authoritative resolver, with a small answer cache. Browsers with
// RequiresDoH route their HTTPS-RR queries through it on every
// subsequent Visit.
func (l *Lab) EnableDoH() *transport.Fleet {
	fl := transport.NewFleet(l.Net, l.Clock, transport.FleetConfig{
		Balance: transport.BalanceRoundRobin, Seed: 99,
		Cache: transport.CacheConfig{Shards: 2, ShardCapacity: 64},
	})
	fl.Add(transport.ProtoDoH, "lab-doh", l.Auth, DoHAddr)
	l.DoH = fl
	return fl
}

// Visit runs one browser against the lab (fresh browser per call — the
// paper clears caches between rounds).
func (l *Lab) Visit(b Behavior, url string) *VisitResult {
	br := &Browser{B: b, Net: l.Net, Resolver: l.Resolver}
	if l.DoH != nil {
		br.DoH = l.DoH.Client
	}
	return br.Navigate(url)
}

// params is a tiny helper building svcb.Params.
func params(build func(ps *svcb.Params)) svcb.Params {
	var ps svcb.Params
	if build != nil {
		build(ps2(&ps))
	}
	return ps
}

func ps2(ps *svcb.Params) *svcb.Params { return ps }

// Scenario is one row of the support matrices.
type Scenario struct {
	Row string
	// URL to navigate (defaults to https://a.com).
	URL string
	// Build configures a fresh lab.
	Build func(l *Lab)
	// Classify grades the visit.
	Classify func(l *Lab, v *VisitResult) Support
}

// basicSetup is the §5.1 configuration: ServiceMode record, h2, one server.
func basicSetup(l *Lab) {
	l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) { _ = ps.SetALPN([]string{"h2"}) }))
	l.A("a.com.", l.Web1)
	l.Endpoint(l.Web1, 443, &webserver.Endpoint{CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
	l.HTTPPort80(l.Web1)
}

func classifyUpgrade(_ *Lab, v *VisitResult) Support {
	switch {
	case v.OK && v.Scheme == "https":
		return SupportFull
	case v.QueriedHTTPS && v.OK && v.Scheme == "http":
		// Fetched the record but did not use it (Safari's half circle).
		return SupportPartial
	default:
		return SupportNone
	}
}

// Table6Scenarios returns the §5.1/§5.2 scenario list.
func Table6Scenarios() []Scenario {
	return []Scenario{
		{Row: "{apex}", URL: "a.com", Build: basicSetup, Classify: classifyUpgrade},
		{Row: "http://{apex}", URL: "http://a.com", Build: basicSetup, Classify: classifyUpgrade},
		{Row: "https://{apex}", URL: "https://a.com", Build: basicSetup, Classify: classifyUpgrade},
		{
			Row: "AliasMode TargetName", URL: "https://a.com",
			Build: func(l *Lab) {
				// a.com aliases to pool.a.com; a.com itself has no A.
				l.HTTPS("a.com.", 0, "pool.a.com.", nil)
				l.A("pool.a.com.", l.Web1)
				l.Endpoint(l.Web1, 443, &webserver.Endpoint{
					CertNames: []string{"a.com", "pool.a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Addr() == l.Web1 {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "ServiceMode TargetName", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, "pool.a.com.", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
				}))
				l.A("a.com.", l.Web1)
				l.A("pool.a.com.", l.Web2)
				// The right service lives at pool.a.com (Web2); Web1
				// hosts something else entirely.
				l.Endpoint(l.Web2, 443, &webserver.Endpoint{
					CertNames: []string{"a.com", "pool.a.com"}, ALPN: []string{"h2"}})
				l.Endpoint(l.Web1, 443, &webserver.Endpoint{
					CertNames: []string{"unrelated.example"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Addr() == l.Web2 {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "port", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					ps.SetPort(8443)
				}))
				l.A("a.com.", l.Web1)
				l.Endpoint(l.Web1, 8443, &webserver.Endpoint{
					CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Port() == 8443 {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "alpn", URL: "https://a.com",
			Build: func(l *Lab) {
				// The server exclusively advertises and supports h3.
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h3"})
				}))
				l.A("a.com.", l.Web1)
				l.Endpoint(l.Web1, 443, &webserver.Endpoint{
					CertNames: []string{"a.com"}, ALPN: []string{"h3"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ALPN == "h3" {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "IP hints", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					_ = ps.SetIPv4Hints([]netip.Addr{l.HintAddr})
				}))
				l.A("a.com.", l.Web1)
				for _, addr := range []netip.Addr{l.Web1, l.HintAddr} {
					l.Endpoint(addr, 443, &webserver.Endpoint{
						CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
				}
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Addr() == l.HintAddr {
					return SupportFull
				}
				return SupportNone
			},
		},
	}
}

// echShared builds the shared-mode ECH zone: cover.a.com and a.com on the
// same address. mutate customises the endpoint/record after the default
// wiring.
func echShared(l *Lab, echList []byte, ep *webserver.Endpoint) {
	l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
		_ = ps.SetALPN([]string{"h2"})
		ps.SetECH(echList)
	}))
	l.A("a.com.", l.Web1)
	l.A("cover.a.com.", l.Web1)
	l.Endpoint(l.Web1, 443, ep)
	l.HTTPPort80(l.Web1)
}

// Table7Scenarios returns the §5.3 ECH scenario list.
func Table7Scenarios() []Scenario {
	return []Scenario{
		{
			Row: "Shared Mode Support", URL: "https://a.com",
			Build: func(l *Lab) {
				echShared(l, l.KM.ConfigList(l.Clock.Now()), &webserver.Endpoint{
					CertNames: []string{"a.com", "cover.a.com"}, ALPN: []string{"h2"},
					ECHKeys: l.KM})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ECHUsed {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "(1) Unilateral ECH", URL: "https://a.com",
			Build: func(l *Lab) {
				// DNS still advertises ECH; the server dropped support.
				echShared(l, l.KM.ConfigList(l.Clock.Now()), &webserver.Endpoint{
					CertNames: []string{"a.com", "cover.a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				// Success = graceful fallback to standard TLS.
				if v.OK && !v.ECHUsed {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "(2) Malformed ECH", URL: "https://a.com",
			Build: func(l *Lab) {
				echShared(l, []byte{0xde, 0xad, 0xbe, 0xef}, &webserver.Endpoint{
					CertNames: []string{"a.com", "cover.a.com"}, ALPN: []string{"h2"},
					ECHKeys: l.KM})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK {
					return SupportFull // ignored the malformed config
				}
				return SupportNone // hard failure
			},
		},
		{
			Row: "(3) Mismatched key", URL: "https://a.com",
			Build: func(l *Lab) {
				// DNS carries a stale key; the server offers retry
				// configs from its current keys.
				echShared(l, l.StaleKM.ConfigList(l.Clock.Now()), &webserver.Endpoint{
					CertNames: []string{"a.com", "cover.a.com"}, ALPN: []string{"h2"},
					ECHKeys: l.KM})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ECHUsed && len(v.Attempts) > 1 {
					return SupportFull // succeeded via the retry config
				}
				return SupportNone
			},
		},
		{
			Row: "Split Mode Support", URL: "https://a.com",
			Build: func(l *Lab) {
				km, _ := ech.NewKeyManager(rand.New(rand.NewSource(5)), "b.com",
					time.Hour, 2*time.Hour, l.Clock.Now().Add(-time.Hour))
				backend := &webserver.Endpoint{CertNames: []string{"a.com"}, ALPN: []string{"h2"}}
				front := &webserver.Endpoint{
					CertNames: []string{"b.com"}, ALPN: []string{"h2"},
					ECHKeys:  km,
					Backends: map[string]*webserver.Endpoint{"a.com": backend},
				}
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					ps.SetECH(km.ConfigList(l.Clock.Now()))
				}))
				l.A("a.com.", l.Web1)
				l.A("b.com.", l.Web2)
				l.Endpoint(l.Web1, 443, backend)
				l.Endpoint(l.Web2, 443, front)
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ECHUsed {
					return SupportFull
				}
				return SupportNone
			},
		},
	}
}

// RunMatrix executes a scenario list for each browser and renders the
// support matrix.
func RunMatrix(title string, scenarios []Scenario, behaviors []Behavior) (*analysis.Table, map[string]map[string]Support) {
	t := &analysis.Table{Title: title, Columns: []string{"scenario"}}
	for _, b := range behaviors {
		t.Columns = append(t.Columns, b.Name)
	}
	marks := map[string]map[string]Support{}
	for _, sc := range scenarios {
		row := []string{sc.Row}
		marks[sc.Row] = map[string]Support{}
		for _, b := range behaviors {
			l := NewLab()
			sc.Build(l)
			v := l.Visit(b, sc.URL)
			s := sc.Classify(l, v)
			marks[sc.Row][b.Name] = s
			row = append(row, s.Mark())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, marks
}

// FailoverScenarios returns the port/IP-hint failover experiments.
func FailoverScenarios() []Scenario {
	return []Scenario{
		{
			Row: "port failover (server on 443 only)", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					ps.SetPort(8443)
				}))
				l.A("a.com.", l.Web1)
				l.Endpoint(l.Web1, 443, &webserver.Endpoint{
					CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "IP hint failover (server on hint addr only)", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					_ = ps.SetIPv4Hints([]netip.Addr{l.HintAddr})
				}))
				l.A("a.com.", l.Web1)
				l.Endpoint(l.HintAddr, 443, &webserver.Endpoint{
					CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Addr() == l.HintAddr {
					return SupportFull
				}
				return SupportNone
			},
		},
		{
			Row: "IP hint failover (server on A addr only)", URL: "https://a.com",
			Build: func(l *Lab) {
				l.HTTPS("a.com.", 1, ".", params(func(ps *svcb.Params) {
					_ = ps.SetALPN([]string{"h2"})
					_ = ps.SetIPv4Hints([]netip.Addr{l.HintAddr})
				}))
				l.A("a.com.", l.Web1)
				l.Endpoint(l.Web1, 443, &webserver.Endpoint{
					CertNames: []string{"a.com"}, ALPN: []string{"h2"}})
			},
			Classify: func(l *Lab, v *VisitResult) Support {
				if v.OK && v.ConnectedTo.Addr() == l.Web1 {
					return SupportFull
				}
				return SupportNone
			},
		},
	}
}
