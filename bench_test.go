// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index). The expensive part — the measurement campaign itself — runs once
// per `go test -bench` invocation in shared setup; each benchmark then
// times the analysis that produces its table/figure, and micro-benchmarks
// cover the substrate hot paths (wire codec, signing, sealing, resolution,
// scanning, browsing).
package repro

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/providers"
	"repro/internal/scanner"
	"repro/internal/svcb"
	"repro/internal/transport"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchCamp *core.Campaign
	benchErr  error
)

// benchCampaign runs one shared scaled-down campaign (1.5k domains, 2-week
// sampling, hourly ECH, validation census).
func benchCampaign(b *testing.B) *core.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchCamp, benchErr = core.NewCampaign(core.CampaignConfig{
			Size: 1500, Seed: 42, StepDays: 14,
		})
		if benchErr != nil {
			return
		}
		if benchErr = benchCamp.RunDaily(); benchErr != nil {
			return
		}
		benchCamp.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 2)
		benchCamp.RunValidationCensus(time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp
}

func benchStore(b *testing.B) *dataset.Store { return benchCampaign(b).Store }

// --- E1: Fig 2 ---

func BenchmarkFig2AdoptionRates(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.Adoption(st)
		if len(res.DynamicApex.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E2: Table 2 ---

func BenchmarkTable2NSCategories(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.NSCategories(st, nil).Days == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E3: Table 3 + Fig 3 ---

func BenchmarkTable3NonCloudflare(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.NonCFProviders(st, nil).DistinctTotal == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig3ProviderTrend(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.NonCFProviders(st, nil)
		if len(res.DailyDistinct.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- E4: §4.2.3 ---

func BenchmarkIntermittencyAnalysis(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Intermittency(st)
	}
}

// --- E5: Table 4 ---

func BenchmarkTable4DefaultVsCustom(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.DefaultVsCustom(st, nil).Days == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E6: Table 5 ---

func BenchmarkTable5ProviderParams(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		google := analysis.ProviderParams(st, "Google")
		godaddy := analysis.ProviderParams(st, "GoDaddy")
		_ = analysis.Table5(google, godaddy)
	}
}

// --- E7: §4.3.3 ---

func BenchmarkSvcPriorityTargetName(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.SvcParams(st, "apex").ServiceModePct == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E8: Table 8 ---

func BenchmarkTable8ALPN(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.ALPN(st, "apex", nil, providers.H3Draft29SunsetDate)
		if len(res.Share) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E9: Fig 11 ---

func BenchmarkFig11IPHints(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.HintUsage(st, "apex")
		if len(res.V4Usage.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E10: Fig 12 + connectivity ---

func BenchmarkFig12MismatchDuration(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.MismatchDurations(st, "apex")
	}
}

func BenchmarkIPHintConnectivity(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Connectivity(st)
	}
}

// --- E11: Fig 13 ---

func BenchmarkFig13ECHDeployment(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.ECHDeployment(st, nil)
		if len(res.Apex.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E12: Fig 4 ---

func BenchmarkFig4ECHRotation(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.ECHRotation(st)
		if res.DistinctConfigs == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E13: Fig 5 ---

func BenchmarkFig5SignedValidated(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.Signed(st, nil)
		if len(res.SignedApex.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E14: Table 9 ---

func BenchmarkTable9DNSSECValidation(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.Census(st)
		if res.WithHTTPS.Signed == 0 {
			b.Fatal("empty census")
		}
	}
}

// --- E15: Fig 14 ---

func BenchmarkFig14SignedECH(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.SignedECH(st, nil)
		if len(res.SignedPct.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- E16/E17/E18: Tables 6, 7 and the failover matrix ---

func BenchmarkTable6BrowserMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, marks := browser.RunMatrix("Table 6", browser.Table6Scenarios(), browser.All())
		if len(marks) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkTable7ECHMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, marks := browser.RunMatrix("Table 7", browser.Table7Scenarios(), browser.All())
		if len(marks) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkFailoverBehaviour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, marks := browser.RunMatrix("failover", browser.FailoverScenarios(), browser.All())
		if len(marks) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// --- E20: Fig 8/9 ---

func BenchmarkFig8Rankings(b *testing.B) {
	st := benchStore(b)
	phase1, _ := analysis.OverlappingSets(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analysis.RankDistributions(st, phase1)
		if len(stats) != 2 {
			b.Fatal("bad result")
		}
	}
}

// --- campaign pipelining ---

// benchmarkCampaignDays times a daily campaign (NS scans and connectivity
// probes included) of the given day count; cfg supplies the size, the
// day-worker count and, for a fleet campaign, the serving layer. World
// construction runs off the clock; only RunDaily is measured, and its
// ECDSA signs and full verifies are reported per op.
func benchmarkCampaignDays(b *testing.B, days int, cfg core.CampaignConfig) {
	b.Helper()
	cfg.Seed, cfg.StepDays = 7, 1
	cfg.Start = time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.AddDate(0, 0, days-1)
	var ops ecdsaOps
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.NewCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ops.count(func() { err = c.RunDaily() })
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Store.Days("apex")) != days {
			b.Fatal("incomplete campaign")
		}
	}
	ops.report(b)
}

// ecdsaOps sums the ECDSA signs and full verifies of a benchmark's timed
// runs, to report per op.
type ecdsaOps struct{ signs, verifies uint64 }

func (e *ecdsaOps) count(run func()) {
	before := dnssec.ReadCounts()
	run()
	n := dnssec.ReadCounts().Sub(before)
	e.signs, e.verifies = e.signs+n.Signs, e.verifies+n.Verifies
}

func (e *ecdsaOps) report(b *testing.B) {
	b.ReportMetric(float64(e.signs)/float64(b.N), "signs/op")
	b.ReportMetric(float64(e.verifies)/float64(b.N), "verifies/op")
}

// BenchmarkCampaignSerialVsPipelined compares the serial day walk against
// the pipelined scheduler (8 concurrent per-day scan contexts). The two
// variants produce byte-identical stores (see core.TestPipelinedMatchesSerial);
// the wall-clock ratio is the pipelining speedup on this host and scales
// with available cores (the repo benchmark reports the same ratio as
// core.day_pipeline_speedup).
func BenchmarkCampaignSerialVsPipelined(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchmarkCampaignDays(b, 21, core.CampaignConfig{Size: 300, DayWorkers: 1})
	})
	b.Run("dayworkers8", func(b *testing.B) {
		benchmarkCampaignDays(b, 21, core.CampaignConfig{Size: 300, DayWorkers: 8})
	})
}

// BenchmarkDailyDirect is the repo benchmark's daily-direct workload as a Go
// benchmark: stub to public recursor, no fleet, one goroutine, so recursor,
// validator and authoritatives own the profile (`make profile` runs this).
func BenchmarkDailyDirect(b *testing.B) {
	b.ReportAllocs()
	benchmarkCampaignDays(b, 15, core.CampaignConfig{Size: 3000, DayWorkers: 1})
}

// fleetCampaign is the serving layer of the repo benchmark's fleet campaigns:
// the four-frontend doh=2,dot=1,doq=1 racing fleet, telemetry series and
// anomaly tier on, one day and one hour worker per processor.
func fleetCampaign() core.CampaignConfig {
	p := runtime.GOMAXPROCS(0)
	return core.CampaignConfig{
		Size: 3000, DayWorkers: p, HourWorkers: p,
		DoHFrontends: 4, TransportMix: transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		TelemetryInterval: time.Hour, AnomalyCapture: true,
	}
}

// BenchmarkDailyFleet is the repo benchmark's daily-fleet workload as a Go
// benchmark: the daily-direct campaign through fleetCampaign's serving
// layer, so envelopes, shared cache, strategy and obs join the profile
// (`make profile-fleet` runs this).
func BenchmarkDailyFleet(b *testing.B) {
	b.ReportAllocs()
	benchmarkCampaignDays(b, 16, fleetCampaign())
}

// BenchmarkHourlyECH is the repo benchmark's hourly-ech workload as a Go
// benchmark: five days of hourly scans of the ECH publishers among 3 000
// domains through fleetCampaign's serving layer, every hour on forked
// recursors and a cold fleet cache, so cold-cache recursion and the ECH
// answer path own the profile (`make profile-hourly` runs this). The
// discovery scan that finds the publishers is timed with it, as the repo
// benchmark times it.
func BenchmarkHourlyECH(b *testing.B) {
	b.ReportAllocs()
	cfg := fleetCampaign()
	cfg.Seed = 7
	var ops ecdsaOps
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.NewCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ops.count(func() { c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 5) })
		if len(c.Store.ECHObservations()) == 0 {
			b.Fatal("no ECH observations")
		}
	}
	ops.report(b)
}

// benchmarkServe runs the repo benchmark's serve workloads as a Go
// benchmark: a million open-loop clients (Zipf s = 1 over the names the
// world serves at noon) driving fleetCampaign's serving layer over a
// world of the given size, with the fleet cache's geometry (0, 0 keeps
// the default). Campaign and engine are built off the clock; only
// Engine.Run is timed, and ns/query is its cost per client query.
func benchmarkServe(b *testing.B, size, shards, capacity, queries int) {
	b.ReportAllocs()
	start := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	at := start.Add(12 * time.Hour)
	var ns, n float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := fleetCampaign()
		cfg.Size, cfg.Seed, cfg.StepDays, cfg.Start, cfg.End = size, 7, 1, start, start
		cfg.DoHShards, cfg.DoHShardCap = shards, capacity
		c, err := core.NewCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.World.Clock.Set(at)
		eng, err := workload.New(workload.Config{
			Clients: 1_000_000, Model: workload.ModelOpen, Seed: 7,
			Domains: serveNames(c, at), ZipfS: 1, Duration: 24 * time.Hour, MaxQueries: queries,
			Mix: cfg.TransportMix,
		}, c.World.Clock, c.Fleet.Client)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		sum := eng.Run()
		ns += float64(time.Since(t0))
		n += float64(sum.Queries)
		if sum.Queries != uint64(queries) || sum.Errors != 0 {
			b.Fatalf("ran %d queries with %d errors, want %d clean", sum.Queries, sum.Errors, queries)
		}
	}
	b.ReportMetric(ns/n, "ns/query")
}

// serveNames is the serve benchmarks' name population: the names listed at
// at whose apex some provider serves then. It is setup, run off the clock,
// and `make attribute`'s SETUP pattern names it.
func serveNames(c *core.Campaign, at time.Time) []string {
	var names []string
	for _, name := range c.World.Tranco.ListFor(at) {
		if d, ok := c.World.Domain(dnswire.ApexOf(name)); ok && len(d.ProvidersAt(at)) > 0 {
			names = append(names, name)
		}
	}
	return names
}

// BenchmarkServeHot is the repo benchmark's serve-hot workload: 900 000
// queries on a 500-name world, fleet-cache hits dominating (`make
// profile-serve` runs this).
func BenchmarkServeHot(b *testing.B) { benchmarkServe(b, 500, 0, 0, 900_000) }

// BenchmarkServeMiss is the repo benchmark's serve-miss workload: 260 000
// queries on a 20 000-name world behind a 4×64 fleet cache, so inserts,
// evictions and the recursor's warm path carry the load (`make
// profile-serve SERVE=Miss`).
func BenchmarkServeMiss(b *testing.B) { benchmarkServe(b, 20000, 4, 64, 260_000) }

// BenchmarkAuthoritativeAnswer times the three answers a scan is mostly
// made of, warm, straight at the handler: a provider's NODATA for an
// unsigned non-adopter, its signed HTTPS answer for an adopter, and a TLD
// referral. internal/providers pins the same three as allocation budgets.
func BenchmarkAuthoritativeAnswer(b *testing.B) {
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC)
	var plain, signed *providers.DomainState
	for _, name := range w.Tranco.ListFor(now) {
		d, ok := w.Domain(name)
		if !ok || d.Intermittent != providers.IntermitNone || !d.SwitchDay.IsZero() || d.ApexCNAME {
			continue
		}
		switch adopter := d.HTTPSPublished(now, d.Providers[0]); {
		case plain == nil && !d.Signed && !adopter:
			plain = d
		case signed == nil && d.Signed && adopter:
			signed = d
		}
	}
	if plain == nil || signed == nil {
		b.Fatal("world lacks an unsigned non-adopter or a signed adopter")
	}
	tld := w.TLDs[dnswire.ParentName(plain.Apex)]
	for _, c := range []struct {
		name string
		h    interface {
			HandleDNSAt(*dnswire.Message, time.Time) *dnswire.Message
		}
		q *dnswire.Message
	}{
		{"provider-nodata", plain.Providers[0], dnswire.NewQuery(1, plain.Apex, dnswire.TypeHTTPS, true)},
		{"provider-signed-https", signed.Providers[0], dnswire.NewQuery(2, signed.Apex, dnswire.TypeHTTPS, true)},
		{"tld-referral", tld, dnswire.NewQuery(3, plain.Apex, dnswire.TypeHTTPS, true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if resp := c.h.HandleDNSAt(c.q, now); resp.RCode != dnswire.RCodeNoError {
					b.Fatalf("rcode %v", resp.RCode)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkScanDay(b *testing.B) {
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 1000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	sc := scanner.New(w.Net, w.GoogleAddr, w.CFResolverAddr, w.Whois)
	day := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	list := w.Tranco.ListFor(day)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Clock.Set(day.Add(time.Duration(i) * 24 * time.Hour))
		snap := sc.ScanList(day, "apex", list)
		if snap.Total != len(list) {
			b.Fatal("bad snapshot")
		}
	}
}

func BenchmarkResolveHTTPS(b *testing.B) {
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 500, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
	list := w.Tranco.ListFor(w.Clock.Now())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := list[i%len(list)]
		if _, err := w.GoogleResolver.Resolve(name, dnswire.TypeHTTPS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSWirePackUnpack(b *testing.B) {
	var params svcb.Params
	_ = params.SetALPN([]string{"h2", "h3"})
	_ = params.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("104.16.132.229")})
	m := dnswire.NewQuery(1, "example.com", dnswire.TypeHTTPS, true)
	m.Response = true
	m.Answer = []dnswire.RR{{
		Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.SVCBData{Priority: 1, Target: ".", Params: params},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if err := dnswire.UnpackInto(new(dnswire.Message), wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECHSealOpen(b *testing.B) {
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	km, err := ech.NewKeyManager(rand.New(rand.NewSource(1)), "cover.example", time.Hour, time.Hour, now)
	if err != nil {
		b.Fatal(err)
	}
	cfg := km.CurrentConfig(now)
	payload := []byte("inner client hello sni=secret.example alpn=h2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, ct, err := ech.Seal(nil, cfg, nil, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := km.Open(now, cfg.ConfigID, enc, nil, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRRSIGSignVerify(b *testing.B) {
	key := dnssec.DeriveKey(2, "example.com.", false)
	rrs := []dnswire.RR{{
		Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.SVCBData{Priority: 1, Target: "."},
	}}
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := dnssec.SignRRset(key, rrs, now.Add(-time.Hour), now.Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		if err := dnssec.VerifyRRSIG(sig, rrs, key.DNSKEY(3600), now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrowserNavigate(b *testing.B) {
	scenarios := browser.Table6Scenarios()
	l := browser.NewLab()
	scenarios[2].Build(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := l.Visit(browser.All()[0], "https://a.com") // Chrome
		if !v.OK {
			b.Fatal("visit failed")
		}
	}
}

// BenchmarkWorldBuild times BuildWorld at the benchmark's list size and at
// the default one (universes of 4 980 and 33 200 domains).
func BenchmarkWorldBuild(b *testing.B) {
	for _, size := range []int{3000, 20_000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := providers.BuildWorld(providers.WorldConfig{Size: size, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- encrypted-DNS serving layer ---

// transportBench builds a small world fronted by an encrypted-DNS fleet
// of three frontends speaking the given protocols (cycled). cache is the
// geometry of the sharded answer cache the frontends share (the zero value
// is the default one); nil runs them with no cache at all.
func transportBench(b *testing.B, cache *transport.CacheConfig, protos ...transport.Protocol) (*transport.Client, []string, *providers.World) {
	b.Helper()
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 500, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
	cfg := transport.FleetConfig{Balance: transport.BalanceRoundRobin, Seed: 11}
	if cache != nil {
		cfg.Cache = *cache
	}
	fl := transport.NewFleet(w.Net, w.Clock, cfg)
	if len(protos) == 0 {
		protos = []transport.Protocol{transport.ProtoDoH}
	}
	for i := 0; i < 3; i++ {
		p := protos[i%len(protos)]
		ap := netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), p.Port())
		fe := fl.Add(p, "fe", w.GoogleResolver, ap)
		if cache == nil {
			fe.Cache = nil
		}
	}
	return fl.Client, w.Tranco.ListFor(w.Clock.Now()), w
}

// BenchmarkDoHCachedPath measures the fleet's hot path: every query after
// the warm-up is answered from the shared sharded cache.
func BenchmarkDoHCachedPath(b *testing.B) {
	client, list, _ := transportBench(b, &transport.CacheConfig{})
	for _, name := range list {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(list[i%len(list)], dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportPath measures the cached hot path per envelope: the
// same fleet shape and warm shared cache, exchanged over each protocol —
// the per-protocol performance comparison the transport subsystem was
// built to enable. DoH pays envelope base64/pack, DoT frame assembly and
// ID demux on a persistent connection, DoQ a fresh stream per query.
func BenchmarkTransportPath(b *testing.B) {
	for _, proto := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
		b.Run(proto.String(), func(b *testing.B) {
			client, list, _ := transportBench(b, &transport.CacheConfig{}, proto)
			for _, name := range list {
				if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(list[i%len(list)], dnswire.TypeHTTPS, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportStrategy measures the resolution-strategy dispatch
// cost on the cached hot path over a mixed DoH/DoT/DoQ fleet: serial
// failover (one dial per exchange) and happy-eyeballs racing (a second
// cross-protocol dial whenever the primary misses the stagger). The
// latency model is synthetic so strategy decisions are deterministic and
// the numbers compare strategy overhead, not host scheduling.
func BenchmarkTransportStrategy(b *testing.B) {
	for _, kind := range []transport.StrategyKind{transport.StrategySerial, transport.StrategyRace} {
		b.Run(kind.String(), func(b *testing.B) {
			client, list, _ := transportBench(b, &transport.CacheConfig{},
				transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ)
			client.Strategy = transport.StrategyConfig{Kind: kind}
			client.Latency = transport.SyntheticLatency(2*time.Millisecond, 18*time.Millisecond)
			for _, name := range list {
				if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(list[i%len(list)], dnswire.TypeHTTPS, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exchangeAllocsLoop drives the alloc-budget benchmark body: answer
// recycling on, one query message reused with ID/QNAME patched per
// exchange — the same discipline the workload engine applies — so the
// numbers isolate the serving path's own allocations.
func exchangeAllocsLoop(b *testing.B, client *transport.Client, list []string) {
	b.Helper()
	client.SetReuseAnswers(true)
	// Patch canonical FQDNs into the reused query — NewQuery canonicalises
	// its name argument, so patching Question[0].Name directly must keep
	// that invariant (and a non-canonical name would charge the loop a
	// normalisation allocation that real steady-state callers never pay).
	names := make([]string, len(list))
	for i, n := range list {
		names[i] = dnswire.CanonicalName(n)
	}
	q := dnswire.NewQuery(1, names[0], dnswire.TypeHTTPS, true)
	for _, name := range names {
		q.ID++
		q.Question[0].Name = name
		if _, err := client.Exchange(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID++
		q.Question[0].Name = names[i%len(names)]
		if _, err := client.Exchange(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeAllocs pins the exchange hot path's allocation budget
// under the reuse APIs: cached (shared-cache hit, the steady state),
// stale (RFC 8767 serve-stale with a dead recursor), and uncached (full
// envelope decode + recursor traversal per query). The repo benchmark
// bounds the same path as transport.allocs_per_exchange_hit/miss and the
// end-to-end allocs_per_op.
func BenchmarkExchangeAllocs(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		client, list, _ := transportBench(b, &transport.CacheConfig{})
		exchangeAllocsLoop(b, client, list)
	})
	b.Run("stale", func(b *testing.B) {
		w, err := providers.BuildWorld(providers.WorldConfig{Size: 500, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		w.Clock.Set(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
		fl := transport.NewFleet(w.Net, w.Clock, transport.FleetConfig{
			Balance: transport.BalanceRoundRobin, Seed: 11,
			Cache: transport.CacheConfig{StaleWindow: 24 * time.Hour},
		})
		for i := 0; i < 3; i++ {
			ap := netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), 443)
			fl.Add(transport.ProtoDoH, "fe", w.GoogleResolver, ap)
		}
		client := fl.Client
		list := w.Tranco.ListFor(w.Clock.Now())
		for _, name := range list {
			if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
				b.Fatal(err)
			}
		}
		// Expire everything, kill the recursor: all answers are now stale.
		w.Clock.Advance(301 * time.Second)
		for _, fe := range fl.Frontends {
			fe.Handler = deadHandler{}
		}
		exchangeAllocsLoop(b, client, list)
	})
	b.Run("uncached", func(b *testing.B) {
		client, list, _ := transportBench(b, nil)
		exchangeAllocsLoop(b, client, list)
	})
}

// BenchmarkFleetMissPath measures one exchange per envelope when every
// query misses: a single-protocol fleet over a 1×1 shared cache, names
// cycling, answers recycled. Per query that is envelope encode and decode,
// a cache probe, the recursor's warm path, the one answer encode, an insert
// into the evicted entry and the client's decode into a recycled message;
// the allocations reported are the recursor's, the serving layer adding
// none (transport.TestExchangeAllocBudgets).
func BenchmarkFleetMissPath(b *testing.B) {
	for _, proto := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
		b.Run(proto.String(), func(b *testing.B) {
			client, list, _ := transportBench(b, &transport.CacheConfig{Shards: 1, ShardCapacity: 1}, proto)
			exchangeAllocsLoop(b, client, list)
		})
	}
}

// BenchmarkDoHUncachedPath measures the same exchanges with the answer
// cache disabled: every query pays envelope decode + recursor traversal.
func BenchmarkDoHUncachedPath(b *testing.B) {
	client, list, _ := transportBench(b, nil)
	for _, name := range list {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(list[i%len(list)], dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
}

// deadHandler models a dead recursive fleet: every query hard-fails, the
// way simnet reports an unreachable upstream.
type deadHandler struct{}

func (deadHandler) HandleDNS(*dnswire.Message) *dnswire.Message { return nil }

// BenchmarkDoHStalePath measures the RFC 8767 serve-stale hot path: every
// entry is past TTL, the recursor is dead, and each query is answered by
// the stale-body copy + TTL-cap rewrite.
func BenchmarkDoHStalePath(b *testing.B) {
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 500, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
	fl := transport.NewFleet(w.Net, w.Clock, transport.FleetConfig{
		Balance: transport.BalanceRoundRobin, Seed: 11,
		Cache: transport.CacheConfig{StaleWindow: 24 * time.Hour},
	})
	for i := 0; i < 3; i++ {
		ap := netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), 443)
		fl.Add(transport.ProtoDoH, "fe", w.GoogleResolver, ap)
	}
	client := fl.Client
	list := w.Tranco.ListFor(w.Clock.Now())
	for _, name := range list {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
	// Expire everything, kill the recursor: all answers are now stale.
	w.Clock.Advance(301 * time.Second)
	for _, fe := range fl.Frontends {
		fe.Handler = deadHandler{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(list[i%len(list)], dnswire.TypeHTTPS, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoHNegativePath measures RFC 2308 negative-cache absorption:
// a miss storm on NXDOMAIN names served from fresh negative entries.
func BenchmarkDoHNegativePath(b *testing.B) {
	clock := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 300, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(clock)
	fl := transport.NewFleet(w.Net, w.Clock, transport.FleetConfig{
		Balance: transport.BalanceRoundRobin, Seed: 11,
	})
	cache := fl.Cache
	ap := netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), 443)
	fl.Add(transport.ProtoDoH, "fe", w.GoogleResolver, ap)
	client := fl.Client
	// Names under a real TLD that resolve to NXDOMAIN with an SOA.
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("bench-nx-%d.com", i)
	}
	for _, name := range names {
		if _, err := client.Query(name, dnswire.TypeA, false); err != nil {
			b.Fatal(err)
		}
	}
	if st := cache.Stats(); st.NegativeEntries == 0 {
		b.Fatalf("no negative entries cached (stats %+v)", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(names[i%len(names)], dnswire.TypeA, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoHEnvelopeRoundTrip isolates the RFC 8484 GET parameter
// codec: encode the query, decode it back.
func BenchmarkDoHEnvelopeRoundTrip(b *testing.B) {
	q := dnswire.NewQuery(7, "example.com", dnswire.TypeHTTPS, true)
	var (
		m       dnswire.Message
		enc, sc []byte
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		param, buf, err := dnswire.AppendEncodeDoHParam(q, enc)
		if err != nil {
			b.Fatal(err)
		}
		enc = buf
		if sc, err = dnswire.DecodeDoHParamInto(&m, param, sc); err != nil {
			b.Fatal(err)
		}
	}
}
