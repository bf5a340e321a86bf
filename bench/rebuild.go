package main

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/providers"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file rebuilds one scan context — the unit core.RunDaily and
// core.RunHourlyECH pipeline — from the exported parts core itself uses,
// so that a timing wrapper can sit at every boundary the layers already
// meet at. With a nil tracer no wrapper is installed and the same code is
// the untraced reference the tracing overhead is measured against.

// The campaign fleet's synthetic latency band and the start of the TLS
// probing experiment are private to core; a traced rebuild that drifts
// from them fails the rebuild-equals-core check in tracephase.go.
const (
	fleetLatencyBase   = 2 * time.Millisecond
	fleetLatencySpread = 18 * time.Millisecond
)

var connectivityProbeStart = time.Date(2024, 1, 24, 0, 0, 0, 0, time.UTC)

// tracedHandler times a recursor's HandleDNS.
type tracedHandler struct {
	t *tracer
	h simnet.DNSHandler
}

func (w tracedHandler) HandleDNS(q *dnswire.Message) *dnswire.Message {
	id := w.t.begin(layerResolver)
	resp := w.h.HandleDNS(q)
	w.t.end(id)
	return resp
}

// authoritative is what Provider and TLDServer both are: handlers whose
// answers depend on the querying view's clock.
type authoritative interface {
	simnet.DNSHandler
	simnet.DNSHandlerAt
}

// tracedAuthoritative times an authoritative server's HandleDNSAt.
type tracedAuthoritative struct {
	t *tracer
	h authoritative
}

func (w tracedAuthoritative) HandleDNS(q *dnswire.Message) *dnswire.Message {
	id := w.t.begin(layerProviders)
	resp := w.h.HandleDNS(q)
	w.t.end(id)
	return resp
}

func (w tracedAuthoritative) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	id := w.t.begin(layerProviders)
	resp := w.h.HandleDNSAt(q, now)
	w.t.end(id)
	return resp
}

// tracedRoot times the root server, whose handler type is private to
// providers: the wrapper forwards through the base network's registration.
type tracedRoot struct {
	t    *tracer
	base *simnet.Network
	addr netip.Addr
}

func (w tracedRoot) HandleDNS(q *dnswire.Message) *dnswire.Message {
	id := w.t.begin(layerProviders)
	resp, err := w.base.QueryDNS(w.addr, q)
	w.t.end(id)
	if err != nil {
		return nil
	}
	return resp
}

// tracedClient times the stub client; it is both the scanner's Transport
// and the workload engine's Exchanger, and passes through the optional
// methods the engine looks for on its target.
type tracedClient struct {
	t *tracer
	c *transport.Client
	// perQuery opens a new exchange per call (serve); a scan's exchanges
	// belong to the domain scan that issued them.
	perQuery bool
}

func (w *tracedClient) span() int32 {
	if w.perQuery {
		return w.t.beginExchange(layerTransport)
	}
	return w.t.begin(layerTransport)
}

func (w *tracedClient) done(id int32) {
	if w.perQuery {
		w.t.endExchange(id)
	} else {
		w.t.end(id)
	}
}

func (w *tracedClient) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	id := w.span()
	resp, err := w.c.Exchange(q)
	w.done(id)
	return resp, err
}

func (w *tracedClient) ExchangePreferring(q *dnswire.Message, pref transport.Protocol) (*dnswire.Message, error) {
	id := w.span()
	resp, err := w.c.ExchangePreferring(q, pref)
	w.done(id)
	return resp, err
}

func (w *tracedClient) StaleAnswers() uint64    { return w.c.StaleAnswers() }
func (w *tracedClient) SetReuseAnswers(on bool) { w.c.SetReuseAnswers(on) }

// scanCtx is the benchmark's copy of core's per-day / per-hour scan
// context: own clock, network view, forked recursors, forked scanner and,
// for fleet shapes, a fleet replica at the campaign fleet's addresses.
type scanCtx struct {
	clock   *simnet.Clock
	scanner *scanner.Scanner
	fleet   *transport.Fleet
	tr      *tracer
}

// interposeAuthoritatives shadows every authoritative address on the view
// with a timing wrapper around the handler registered there.
func interposeAuthoritatives(w *providers.World, net *simnet.Network, tr *tracer) {
	net.OverrideDNS(w.RootAddr, tracedRoot{t: tr, base: w.Net, addr: w.RootAddr})
	for _, tld := range w.TLDs {
		net.OverrideDNS(tld.Addr, tracedAuthoritative{t: tr, h: tld})
	}
	for _, p := range w.Providers {
		for _, addr := range p.NSAddrs {
			net.OverrideDNS(addr, tracedAuthoritative{t: tr, h: p})
		}
	}
}

// fleetReplica mirrors core's fleet wiring over (net, clock): the same
// protocol assignment, names and addresses as the campaign fleet, the
// recursors g and cf alternating behind the frontends.
func fleetReplica(c *core.Campaign, net *simnet.Network, clock *simnet.Clock, g, cf simnet.DNSHandler, cfg transport.FleetConfig) *transport.Fleet {
	cfg.Balance = c.Cfg.DoHBalance
	cfg.Strategy = transport.StrategyConfig{Kind: c.Cfg.TransportStrategy}
	cfg.Cache = transport.CacheConfig{Shards: c.Cfg.DoHShards, ShardCapacity: c.Cfg.DoHShardCap}
	cfg.Latency = transport.SyntheticLatency(fleetLatencyBase, fleetLatencySpread)
	cfg.Override = true
	fl := transport.NewFleet(net, clock, cfg)
	protos := c.Cfg.TransportMix.Assign(len(c.Fleet.Addrs))
	for i, ap := range c.Fleet.Addrs {
		recursor := g
		if i%2 == 1 {
			recursor = cf
		}
		fl.Add(protos[i], c.Fleet.Frontends[i].Name, recursor, ap)
	}
	return fl
}

// newScanCtx builds a scan context pinned at `at`, like core's
// newScanContext: replica clients keep their clocks frozen, and with the
// anomaly tier configured each replica carries a tail tracer and a flight
// recorder so the traced path pays what the shipped path pays.
func newScanCtx(c *core.Campaign, at time.Time, seed int64, tr *tracer) *scanCtx {
	w := c.World
	clock := simnet.NewClock(at)
	net := w.Net.WithClock(clock)
	var g, cf simnet.DNSHandler = w.GoogleResolver.Fork(net), w.CFResolver.Fork(net)
	if tr != nil {
		g, cf = tracedHandler{tr, g}, tracedHandler{tr, cf}
		interposeAuthoritatives(w, net, tr)
	}
	net.OverrideDNS(w.GoogleAddr, g)
	net.OverrideDNS(w.CFResolverAddr, cf)

	x := &scanCtx{clock: clock, tr: tr}
	var t scanner.Transport
	if c.Fleet != nil {
		cfg := transport.FleetConfig{Seed: seed}
		if c.Cfg.AnomalyCapture {
			cfg.Tracer = obs.NewTracer(clock, obs.TraceConfig{Tail: &obs.TailConfig{}})
			cfg.Recorder = obs.NewRecorder(clock, 0)
		}
		x.fleet = fleetReplica(c, net, clock, g, cf, cfg)
		t = x.fleet.Client
		if tr != nil {
			t = &tracedClient{t: tr, c: x.fleet.Client}
		}
	}
	x.scanner = c.Scanner.Fork(net, t)
	// One goroutine: the tracer's span stack is not shared, and the NS and
	// probe passes would otherwise fan out.
	x.scanner.Concurrency = 1
	return x
}

// scanList is scanner.ScanList with a span around each ScanDomain.
func (x *scanCtx) scanList(date time.Time, kind string, list []string) *dataset.Snapshot {
	snap := &dataset.Snapshot{Date: date, Kind: kind, Total: len(list), Obs: map[string]*dataset.Observation{}}
	for i, name := range list {
		if kind == "www" {
			name = "www." + name
		}
		id := x.tr.beginExchange(layerScanner)
		o := x.scanner.ScanDomain(name)
		x.tr.endExchange(id)
		o.Rank = i + 1
		if o.HasHTTPS() || o.Err != "" {
			snap.Obs[o.Name] = o
		}
	}
	return snap
}

// worldProber evaluates TLS reachability at the context's clock, as core's
// day prober does.
type worldProber struct {
	w     *providers.World
	clock *simnet.Clock
}

func (p worldProber) ProbeTLS(apex string, addr netip.Addr) error {
	return p.w.ProbeTLSAt(apex, addr, p.clock.Now())
}

// scanDay runs one day's stages in core's order and commits them to st.
// It omits what core assembles from private parts (the serving snapshot,
// telemetry series and anomaly capture); the snapshots it stores are
// checked against core's for the same day.
func scanDay(c *core.Campaign, day time.Time, r *rebuilt, tr *tracer) {
	st := r.store
	x := newScanCtx(c, day.Add(12*time.Hour), c.Cfg.Seed^day.Unix(), tr)
	defer r.addFleet(x.fleet)
	list := c.World.Tranco.ListFor(day)
	apex := x.scanList(day, "apex", list)
	www := x.scanList(day, "www", list)
	var ns *dataset.NSSnapshot
	if !day.Before(providers.NSScanStart) {
		id := tr.begin(layerScanner)
		ns = x.scanner.ScanNameServers(day, apex, www)
		tr.end(id)
	}
	var probes []dataset.ProbeResult
	if !day.Before(connectivityProbeStart) {
		id := tr.begin(layerScanner)
		probes = x.scanner.ProbeMismatches(day, apex, worldProber{c.World, x.clock})
		tr.end(id)
	}
	id := tr.begin(layerDataset)
	st.AddTrancoList(day, list)
	st.AddSnapshot(apex)
	st.AddSnapshot(www)
	if ns != nil {
		st.AddNSSnapshot(ns)
	}
	st.AddProbes(probes...)
	tr.end(id)
}

// echDomains is core's discovery step: one apex scan on the world clock
// through the campaign scanner, then the sorted ECH publishers.
func echDomains(c *core.Campaign, start time.Time) []string {
	c.World.Clock.Set(start)
	snap := c.Scanner.ScanList(start, "apex", c.World.Tranco.ListFor(start))
	var out []string
	for name, o := range snap.Obs {
		for _, rec := range o.HTTPS {
			if rec.HasECH {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// scanHour runs one hourly ECH pass in a fresh context (the per-hour cache
// flush), one single-domain ECHScan per span.
func scanHour(c *core.Campaign, now time.Time, domains []string, r *rebuilt, tr *tracer) {
	st := r.store
	x := newScanCtx(c, now, c.Cfg.Seed^now.Unix(), tr)
	defer r.addFleet(x.fleet)
	var all []dataset.ECHObservation
	for _, name := range domains {
		id := tr.beginExchange(layerScanner)
		all = append(all, x.scanner.ECHScan(now, []string{name})...)
		tr.endExchange(id)
	}
	id := tr.begin(layerDataset)
	st.AddECH(all...)
	tr.end(id)
}

// rebuilt is what one rebuilt run leaves behind.
type rebuilt struct {
	wall   time.Duration
	ops    int64
	store  *dataset.Store   // campaigns
	sum    workload.Summary // serve
	digest string
	// serving and strategy sum the counters of every fleet the run stood
	// up (one per scan context, or the serve shape's one).
	serving  transport.FrontendStats
	strategy transport.StrategyStats
}

func (r *rebuilt) addFleet(fl *transport.Fleet) {
	if fl == nil {
		return
	}
	r.serving.Add(fl.TotalStats())
	r.strategy.Add(fl.StrategyStats())
}

// runRebuilt runs the trace-sized part of the shape through the rebuilt
// pipeline on one goroutine; the root span is the whole run. domains is the
// hourly shape's ECH population (echDomains), found once by the caller.
func runRebuilt(sh shape, c *core.Campaign, seed int64, domains []string, tr *tracer) (rebuilt, error) {
	var r rebuilt
	var err error
	switch sh.kind {
	case kindDaily:
		r.store = dataset.NewStore()
		t0 := time.Now()
		root := tr.begin(layerCore)
		for d := 0; d < sh.traceDays; d++ {
			day := dailyStart.AddDate(0, 0, d)
			scanDay(c, day, &r, tr)
			r.ops += int64(2 * len(c.World.Tranco.ListFor(day)))
		}
		id := tr.begin(layerAnalysis)
		analysisPass(r.store)
		tr.end(id)
		tr.end(root)
		r.wall = time.Since(t0)
	case kindHourly:
		r.store = dataset.NewStore()
		t0 := time.Now()
		root := tr.begin(layerCore)
		for h := 0; h < sh.traceHours; h++ {
			scanHour(c, hourlyStart.Add(time.Duration(h)*time.Hour), domains, &r, tr)
		}
		id := tr.begin(layerAnalysis)
		analysisPass(r.store)
		tr.end(id)
		tr.end(root)
		r.wall = time.Since(t0)
		r.ops = int64(len(r.store.ECHObservations()))
	case kindServe:
		w := c.World
		clock := simnet.NewClock(serveAt)
		net := w.Net.WithClock(clock)
		var g, cf simnet.DNSHandler = w.GoogleResolver.Fork(net), w.CFResolver.Fork(net)
		if tr != nil {
			g, cf = tracedHandler{tr, g}, tracedHandler{tr, cf}
			interposeAuthoritatives(w, net, tr)
		}
		// The campaign-level fleet charges its latency to the clock.
		fl := fleetReplica(c, net, clock, g, cf, transport.FleetConfig{Seed: c.Cfg.Seed, ChargeLatency: true})
		var target workload.Exchanger = fl.Client
		if tr != nil {
			target = &tracedClient{t: tr, c: fl.Client, perQuery: true}
		}
		names := servedNames(w, w.Tranco.ListFor(serveAt), serveAt)
		eng, eerr := workload.New(sh.engineConfig(seed, names, sh.traceQueries), clock, target)
		if eerr != nil {
			return r, eerr
		}
		t0 := time.Now()
		root := tr.begin(layerWorkload)
		r.sum = eng.Run()
		tr.end(root)
		r.wall = time.Since(t0)
		r.addFleet(fl)
		r.ops = int64(r.sum.Queries)
		r.digest = fmt.Sprintf("%016x", r.sum.Digest)
	}
	if r.store != nil {
		r.digest, err = storeDigest(r.store)
	}
	return r, err
}

// analysisPass renders every server-side table cmd/reproduce prints for
// -exp all, over whatever the store holds.
func analysisPass(st *dataset.Store) {
	phase1, phase2 := analysis.OverlappingSets(st)
	tables := analysis.Adoption(st).Tables()
	nonCF := analysis.NonCFProviders(st, nil)
	tables = append(tables,
		analysis.NSCategories(st, nil).Table("dynamic"),
		analysis.NSCategories(st, phase2).Table("overlapping"),
		nonCF.Table(10),
		analysis.SeriesTable("distinct non-Cloudflare providers", 20, nonCF.DailyDistinct),
		analysis.Intermittency(st).Table(),
		analysis.DefaultVsCustom(st, nil).Table("dynamic"),
		analysis.DefaultVsCustom(st, phase2).Table("overlapping"),
		analysis.Table5(analysis.ProviderParams(st, "Google"), analysis.ProviderParams(st, "GoDaddy")),
		analysis.SvcParams(st, "apex").Table("apex"),
		analysis.SvcParams(st, "www").Table("www"),
		analysis.ALPN(st, "apex", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.ALPN(st, "www", phase2, providers.H3Draft29SunsetDate).Table(),
	)
	tables = append(tables, analysis.HintUsage(st, "apex").Tables()...)
	tables = append(tables,
		analysis.MismatchDurations(st, "apex").Table(),
		analysis.Connectivity(st).Table(),
		analysis.ECHDeployment(st, nil).Table(),
		analysis.ECHRotation(st).Table(),
	)
	tables = append(tables, analysis.Signed(st, nil).Tables("dynamic")...)
	tables = append(tables, analysis.Signed(st, phase2).Tables("overlapping")...)
	tables = append(tables,
		analysis.Census(st).Table(),
		analysis.StaleECHCorrelation(st).Table(),
		analysis.SignedECH(st, nil).Table(),
		analysis.RankTable("rank distributions", append(analysis.RankDistributions(st, phase1), analysis.NonCFRankings(st))...),
	)
	for _, t := range tables {
		_ = t.Format()
	}
}
