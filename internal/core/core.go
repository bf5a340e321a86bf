// Package core orchestrates end-to-end reproduction campaigns: it builds a
// simulated world, runs the paper's measurement schedules (daily snapshot
// scans, name-server scans, hourly ECH scans, connectivity probes, the
// DNSSEC validation census), and hands the collected dataset to the
// analysis package.
//
// The daily schedule is pipelined: each scan day runs inside its own scan
// context — a per-day virtual clock, a network view over the shared world,
// forked recursors with fresh caches, a forked scanner with its own
// query-ID stream, and (when configured) a per-day encrypted-DNS fleet
// replica — so up to CampaignConfig.DayWorkers days resolve concurrently,
// each scanned on one goroutine, while snapshots commit to the Store in
// strict day order. Because record TTLs are far below a day and all
// authoritative content is a pure function of (domain state, virtual
// time), a per-day context produces byte-identical results to the old
// serial walk — including with a mixed DoH/DoT/DoQ fleet, whose per-day
// replicas keep their clocks frozen (see newScanContext).
//
// The hourly ECH schedule pipelines the same way at hour granularity:
// each hour gets its own scan context (fresh clock, forked recursors —
// the per-hour cache flush — and a per-hour fleet replica), up to
// CampaignConfig.HourWorkers hours run concurrently, and observations
// commit in strict hour order through the same runOrdered committer the
// day pipeline uses. Hourly telemetry is built from per-hour stable
// snapshots merged per day (obs.MergeSnapshots), so the hourly-ech
// series are byte-identical at any worker count.
package core

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/providers"
	"repro/internal/resolver"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// CampaignConfig controls a measurement campaign.
type CampaignConfig struct {
	// Size is the Tranco list size of the generated world; zero selects
	// 20 000, and a negative size is rejected.
	Size int
	// Seed drives world generation.
	Seed int64
	// Start and End bound the daily-scan period; zero values mean the
	// paper's full study period.
	Start, End time.Time
	// StepDays samples every Nth day (1 = daily like the paper; larger
	// steps trade trend resolution for speed). Zero selects 1; a negative
	// step, which would walk the day loop backwards forever, is rejected.
	StepDays int
	// DayWorkers bounds how many scan days run concurrently (each in its
	// own scan context); 0 or 1 runs days one at a time. Results are
	// identical for any value — snapshots always commit in day order.
	DayWorkers int
	// HourWorkers bounds how many hourly-ECH scan hours run concurrently
	// (each in its own scan context); 0 or 1 runs hours one at a time.
	// Results are identical for any value — observations always commit
	// in hour order.
	HourWorkers int
	// DoHFrontends, when positive, interposes the encrypted-DNS serving
	// layer: that many frontends are registered over the public recursors
	// (alternating Google/Cloudflare), all sharing one sharded answer
	// cache, and the scanner queries through a load-balanced upstream
	// pool instead of bare stub queries. The name predates the transport
	// subsystem; with a TransportMix the frontends split across DoH, DoT,
	// and DoQ envelopes.
	DoHFrontends int
	// TransportMix sets the per-campaign protocol mix across the
	// frontends (e.g. transport.Mix{DoH: 6, DoT: 3, DoQ: 1} for
	// 60%/30%/10%). The zero value keeps the all-DoH fleet of PR 1–3.
	// Frontend i's protocol is a pure function of (mix, i), so per-day
	// fleet replicas recompute the identical assignment.
	TransportMix transport.Mix
	// DoHBalance selects the pool's load-balancing policy (the zero
	// value is power-of-two-choices).
	DoHBalance transport.Balance
	// TransportStrategy selects the stub client's resolution strategy:
	// serial failover (the zero value — today's behavior) or
	// happy-eyeballs protocol racing. Strategies change which frontend
	// answers and how many attempts fire, never the answers themselves,
	// so campaign stores stay byte-identical across worker counts under
	// either strategy (per-day replicas keep their clocks frozen; see
	// newScanContext).
	TransportStrategy transport.StrategyKind
	// DoHShards and DoHShardCap set the shared answer cache geometry;
	// zero values select the transport package defaults.
	DoHShards   int
	DoHShardCap int
	// DoHStaleWindow enables RFC 8767 serve-stale on the fleet's answer
	// caches: answers past TTL but within the window are served (with
	// TTLs capped) when a frontend's recursor fails. Zero disables it.
	DoHStaleWindow time.Duration
	// DoHRefreshAhead arms cache prefetch once a fresh entry has consumed
	// this fraction of its TTL (e.g. 0.8); zero disables prefetch.
	DoHRefreshAhead float64
	// DoHFailureCooldown benches a frontend's recursor after a hard
	// failure, serving stale without re-trying it for the window; zero
	// disables benching.
	DoHFailureCooldown time.Duration
	// AnomalyCapture enables the campaign's anomaly tier on the daily
	// pipeline: each per-day fleet replica carries a tail-sampling tracer,
	// and every scan day whose anomaly trigger holds — a client error,
	// negative or stale answer, a tail-retained stable anomaly, or a
	// violated obs.DefaultSLO objective — commits a dataset.AnomalyCapture
	// bundle: the stable SLO verdict, the client's error, negative and
	// stale counters, and the tail ring's stable trace projections.
	// Captures are built exclusively from schedule-independent inputs, so
	// pipelined campaigns stay byte-identical with the tier on. Requires
	// DoHFrontends > 0. Hourly-ECH scans store no captures, so their
	// per-hour replicas carry no tier.
	AnomalyCapture bool
	// TelemetryInterval enables campaign telemetry series when positive
	// and a fleet is configured: each scan day's fleet registry is
	// sampled into a dataset.TelemetrySeries (stable metrics only, so
	// pipelined runs stay byte-identical), and RunHourlyECH folds each
	// hour's replica snapshot into a per-day hourly-ech series. Zero
	// disables series collection; Fleet.Metrics is populated either way.
	TelemetryInterval time.Duration
	// Progress, when non-nil, receives one line per scanned day.
	Progress io.Writer
}

// Campaign is a running reproduction: a world, its scanner, and the
// collected data.
type Campaign struct {
	Cfg     CampaignConfig
	World   *providers.World
	Scanner *scanner.Scanner
	Store   *dataset.Store

	// Fleet is the encrypted-DNS serving layer, populated when
	// Cfg.DoHFrontends is positive: the campaign-level fleet the
	// campaign's own Scanner queries through (the hourly-ECH discovery
	// scan) and cmd/dohserve drives directly. Pipelined days and hours
	// build per-context replicas at the same addresses (Fleet.Addrs) with
	// the same protocol assignment.
	Fleet *transport.Fleet
}

// NewCampaign builds the world and wires the scanner.
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if cfg.Size == 0 {
		cfg.Size = 20_000
	}
	if cfg.StepDays == 0 {
		cfg.StepDays = 1
	}
	if cfg.Start.IsZero() {
		cfg.Start = providers.StudyStart
	}
	if cfg.End.IsZero() {
		cfg.End = providers.StudyEnd
	}
	if cfg.Size < 0 {
		return nil, fmt.Errorf("core: Size %d must not be negative", cfg.Size)
	}
	if cfg.StepDays < 0 {
		return nil, fmt.Errorf("core: StepDays %d must not be negative", cfg.StepDays)
	}
	if cfg.AnomalyCapture && cfg.DoHFrontends <= 0 {
		return nil, fmt.Errorf("core: AnomalyCapture requires DoHFrontends > 0 (the tier records the fleet's exchanges)")
	}
	w, err := providers.BuildWorld(providers.WorldConfig{Size: cfg.Size, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	sc := scanner.New(w.Net, w.GoogleAddr, w.CFResolverAddr, w.Whois)
	c := &Campaign{Cfg: cfg, World: w, Scanner: sc, Store: dataset.NewStore()}
	if cfg.DoHFrontends > 0 {
		c.buildFleet(cfg.DoHFrontends, cfg.TransportMix)
	}
	return c, nil
}

// setWorldClock moves the world clock to t. The world's recursors and the
// campaign fleet's cache stamp entries with the virtual time they were
// stored at, so after a step back in time an answer cached later would
// still read as fresh; a step back flushes all three first.
func (c *Campaign) setWorldClock(t time.Time) {
	if t.Before(c.World.Clock.Now()) {
		c.World.GoogleResolver.FlushCache()
		c.World.CFResolver.FlushCache()
		if c.Fleet != nil {
			c.Fleet.Cache.Flush()
		}
	}
	c.World.Clock.Set(t)
}

// fleetConfig is the fleet configuration the campaign knobs set, shared by
// the campaign fleet and every context's replica, with seed for the pool's
// and the router's randomness.
func (c *Campaign) fleetConfig(seed int64) transport.FleetConfig {
	return transport.FleetConfig{
		Balance:  c.Cfg.DoHBalance,
		Seed:     seed,
		Strategy: transport.StrategyConfig{Kind: c.Cfg.TransportStrategy},
		Cache: transport.CacheConfig{
			Shards:        c.Cfg.DoHShards,
			ShardCapacity: c.Cfg.DoHShardCap,
			StaleWindow:   c.Cfg.DoHStaleWindow,
			RefreshAhead:  c.Cfg.DoHRefreshAhead,
		},
		FailureCooldown: c.Cfg.DoHFailureCooldown,
	}
}

// frontendRecursor returns frontend i's wrapped recursor and its org
// label — the fleet alternates Google/Cloudflare by index, like the
// paper's primary/backup split.
func frontendRecursor(g, cf simnet.DNSHandler, i int) (simnet.DNSHandler, string) {
	if i%2 == 1 {
		return cf, "cloudflare"
	}
	return g, "google"
}

// buildFleet stands up n encrypted-DNS frontends — protocols dealt by the
// campaign mix — over the two public recursors with a shared answer cache
// and routes the scanner through the pool. The campaign-level client
// charges its synthetic latency to the world clock, so serving-layer
// queueing delay is observable to whoever drives this fleet directly
// (cmd/dohserve's drill).
func (c *Campaign) buildFleet(n int, mix transport.Mix) {
	w := c.World
	cfg := c.fleetConfig(c.Cfg.Seed)
	cfg.ChargeLatency = true
	fl := transport.NewFleet(w.Net, w.Clock, cfg)
	protos := mix.Assign(n)
	for i := 0; i < n; i++ {
		recursor, org := frontendRecursor(w.GoogleResolver, w.CFResolver, i)
		name := fmt.Sprintf("%s-%s-%d", protos[i], org, i)
		ap := netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), protos[i].Port())
		fl.Add(protos[i], name, recursor, ap)
	}
	c.Fleet = fl
	c.Scanner.Transport = fl.Client
}

// connectivityProbeStart is when the §4.3.5 TLS probing experiment began.
var connectivityProbeStart = time.Date(2024, 1, 24, 0, 0, 0, 0, time.UTC)

// scanContext is one pipeline unit's isolated execution state — a scan
// day's or a scan hour's: a scanner over a private network view (own
// clock, own recursors, optionally an own transport fleet replica) and a
// prober pinned to the context's clock.
type scanContext struct {
	scanner *scanner.Scanner
	prober  scanner.Prober
	// fleet is the context's serving-layer replica (nil for a direct
	// campaign). Its counters start at zero, so what they read at the end
	// of the unit is the unit's own traffic.
	fleet *transport.Fleet
	// sampler collects the day's telemetry series (stable metrics only)
	// when Cfg.TelemetryInterval is set; nil-safe when disabled. Context
	// clocks are frozen, so runDay forces a sample at each stage boundary.
	// Hour contexts skip the sampler: RunHourlyECH snapshots each hour's
	// registry directly.
	sampler *obs.Sampler
}

// dayProber evaluates the world's TLS reachability schedule at the day
// context's clock rather than the shared world clock.
type dayProber struct {
	w     *providers.World
	clock *simnet.Clock
}

func (p dayProber) ProbeTLS(apex string, addr netip.Addr) error {
	return p.w.ProbeTLSAt(apex, addr, p.clock.Now())
}

// newScanContext builds an isolated scan context pinned at the given
// time: a fresh clock, a network view carrying it, forked recursors with
// empty caches registered at the public resolver addresses, and — when
// the campaign runs an encrypted serving layer — a fleet replica (fresh
// sharded cache, fresh pool state seeded per context, identical protocol
// assignment) at the same frontend addresses. seed differentiates the
// replica's pool/routing randomness per context. A day context
// additionally carries what only the daily pipeline reads back: the
// telemetry sampler and, with Cfg.AnomalyCapture, the tail tracer whose
// ring its capture bundle projects (the bundle's counts come from the
// replica's registry). Hour contexts keep the registry counters
// RunHourlyECH snapshots and nothing else.
//
// A context scans on the one goroutine that runs it (the day and hour
// pipelines are the campaign's only parallel level), so its queries, and
// the walks they start, are a function of the seed. Replica clients keep
// the synthetic latency for pool routing but do NOT charge it to the
// context's clock: a charged clock would drift with the replica's routing,
// and a drifting clock can move time-sensitive answers (ECH configs rotate
// on a 76-minute period) — freezing the context's clock is what makes a
// mixed-protocol pipelined campaign byte-identical to the serial run.
func (c *Campaign) newScanContext(at time.Time, seed int64, day bool) *scanContext {
	clock := simnet.NewClock(at)
	net := c.World.Net.WithClock(clock)
	g := c.World.GoogleResolver.Fork(net)
	cf := c.World.CFResolver.Fork(net)
	net.OverrideDNS(c.World.GoogleAddr, g)
	net.OverrideDNS(c.World.CFResolverAddr, cf)

	dc := &scanContext{prober: dayProber{w: c.World, clock: clock}}
	var t scanner.Transport
	if c.Fleet != nil {
		// The anomaly tier rides each day replica as a tail-only tracer:
		// no head ring, just the flagged-anomaly ring the capture projects.
		var tracer *obs.Tracer
		if day && c.Cfg.AnomalyCapture {
			tracer = obs.NewTracer(clock, obs.TraceConfig{Tail: &obs.TailConfig{}})
		}
		cfg := c.fleetConfig(seed)
		cfg.Override, cfg.Tracer = true, tracer
		fl := transport.NewFleet(net, clock, cfg)
		protos := c.Cfg.TransportMix.Assign(len(c.Fleet.Addrs))
		for i, ap := range c.Fleet.Addrs {
			recursor, _ := frontendRecursor(g, cf, i)
			fl.Add(protos[i], c.Fleet.Frontends[i].Name, recursor, ap)
		}
		dc.fleet = fl
		t = fl.Client
		if day && c.Cfg.TelemetryInterval > 0 {
			dc.sampler = obs.NewSampler(fl.Metrics, clock, true)
		}
	}
	dc.scanner = c.Scanner.Fork(net, t)
	return dc
}

// newDayContext builds the scan context for one day, clocked at the
// day's mid-day scan time.
func (c *Campaign) newDayContext(day time.Time) *scanContext {
	return c.newScanContext(day.Add(12*time.Hour), c.Cfg.Seed^day.Unix(), true)
}

// newHourContext builds the scan context for one hourly-ECH scan,
// clocked at the hour itself. The forked recursors start with empty
// caches — the per-hour flush the serial loop used to do on the shared
// resolvers — and the fleet replica starts with a cold answer cache.
func (c *Campaign) newHourContext(now time.Time) *scanContext {
	return c.newScanContext(now, c.Cfg.Seed^now.Unix(), false)
}

// servingSnapshot derives the day's serving-layer record from the day
// replica's counters. The staleness and negative counters come from the
// stub client — one count per exchange winner — rather than the
// frontends: a racing strategy touches a schedule-dependent
// number of frontends per exchange, and per-attempt counters would break
// the serial/pipelined store equality the campaign guarantees.
// Prefetches stay frontend-side (armed at most once per cache-entry
// generation, so attempt count cannot inflate them), as do upstream
// failures (zero in a healthy world; chaos drills do not byte-compare
// stores).
func (c *Campaign) servingSnapshot(dc *scanContext, day time.Time) *dataset.ServingSnapshot {
	if dc.fleet == nil {
		return nil
	}
	total := dc.fleet.TotalStats()
	return &dataset.ServingSnapshot{
		Date:             day,
		StaleWindowSec:   int64(dc.fleet.Cache.Config().StaleWindow / time.Second),
		StaleServed:      dc.fleet.Client.StaleAnswers(),
		NegativeHits:     dc.fleet.Client.NegativeAnswers(),
		Prefetches:       total.Prefetches,
		UpstreamFailures: total.UpstreamFailures,
	}
}

// dayResult is one day's collected data, buffered until its in-order
// commit.
type dayResult struct {
	day       time.Time
	list      []string
	apexSnap  *dataset.Snapshot
	wwwSnap   *dataset.Snapshot
	nsSnap    *dataset.NSSnapshot
	serving   *dataset.ServingSnapshot
	telemetry *dataset.TelemetrySeries
	anomaly   *dataset.AnomalyCapture
	probes    []dataset.ProbeResult
}

// stableTailFlags are the winner-side trace flags a stored anomaly
// projection may carry. Dial-shape flags (failover, race) depend
// on how scanner workers interleaved their pool updates, so they are
// masked out of the store — they remain visible on the in-memory ring.
const stableTailFlags = obs.FlagError | obs.FlagServFail | obs.FlagStale

// stableTailTraces projects the tail ring onto its stored form:
// winner-side flags only, deduplicated and sorted by (name, flags).
// Exact whenever the ring held every stable-flagged exchange; once the
// top-K bound evicts (cost-ranked, and virtual cost is
// schedule-dependent), the projection is a best-effort sample — which
// is why chaos drills, not byte-identity proofs, are where overflow
// occurs.
func stableTailTraces(t *obs.Tracer) []dataset.AnomalyTrace {
	seen := map[string]bool{}
	var out []dataset.AnomalyTrace
	for _, tr := range t.Tail() {
		fl := tr.Flags & stableTailFlags
		if fl == 0 {
			continue
		}
		key := tr.Name + "|" + fl.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, dataset.AnomalyTrace{Name: tr.Name, Flags: fl.Strings()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return strings.Join(out[i].Flags, ",") < strings.Join(out[j].Flags, ",")
	})
	return out
}

// captureEvents maps the client's winner-side counters to the event keys
// a capture stores, in key order. Client.ExchangePreferring bumps each
// counter once per exchange of that outcome.
var captureEvents = []struct{ key, metric string }{
	{"client.error", "client_errors_total"},
	{"client.negative", "client_negative_answers_total"},
	{"client.stale", "client_stale_answers_total"},
}

// anomalyCapture assembles the day's capture bundle when the anomaly
// trigger holds: a client error, negative or stale answer was counted, a
// stable anomaly was tail-retained, or an SLO objective was violated.
// Everything reads the replica's stable snapshot — no latency histogram
// there, so the p99 objective goes unevaluated (see obs.SLOStatsFrom) and
// Violations counts only the availability and staleness objectives; the
// event counts are the client counters, zero counts omitted.
func (c *Campaign) anomalyCapture(dc *scanContext, day time.Time) *dataset.AnomalyCapture {
	if !c.Cfg.AnomalyCapture || dc.fleet == nil {
		return nil
	}
	snap := dc.fleet.Metrics.StableSnapshot()
	stats := obs.SLOStatsFrom(snap)
	rep := obs.DefaultSLO().Eval(stats)
	var events []dataset.AnomalyEvent
	for _, ce := range captureEvents {
		if n := uint64(snap.Value(ce.metric)); n > 0 {
			events = append(events, dataset.AnomalyEvent{Key: ce.key, Count: n})
		}
	}
	traces := stableTailTraces(dc.fleet.Client.Tracer)
	if rep.Violations == 0 && len(events) == 0 && len(traces) == 0 {
		return nil
	}
	return &dataset.AnomalyCapture{
		Date:         day,
		Exchanges:    stats.Exchanges,
		Errors:       stats.Errors,
		ServFails:    stats.ServFails,
		StaleServed:  stats.Stale,
		Availability: rep.Availability,
		StaleRatio:   rep.StaleRatio,
		Violations:   rep.Violations,
		Events:       events,
		Traces:       traces,
	}
}

// runDay performs one day's full scan sequence inside the given context.
// With telemetry enabled, a stable-metrics sample is forced at each stage
// boundary — per-day clocks are frozen, so stage boundaries are the
// natural deterministic sample points.
func (c *Campaign) runDay(dc *scanContext, day time.Time) *dayResult {
	list, www := c.World.Tranco.CanonListFor(day)
	res := &dayResult{day: day, list: list}
	res.apexSnap = dc.scanner.ScanList(day, "apex", list, www...)
	dc.sampler.Force("apex")
	res.wwwSnap = dc.scanner.ScanList(day, "www", list, www...)
	dc.sampler.Force("www")
	if !day.Before(providers.NSScanStart) {
		res.nsSnap = dc.scanner.ScanNameServers(day, res.apexSnap, res.wwwSnap)
		dc.sampler.Force("ns")
	}
	if !day.Before(connectivityProbeStart) {
		res.probes = dc.scanner.ProbeMismatches(day, res.apexSnap, dc.prober)
		dc.sampler.Force("probes")
	}
	res.serving = c.servingSnapshot(dc, day)
	res.telemetry = telemetrySeries("daily", day, c.Cfg.TelemetryInterval, dc.sampler.Points())
	res.anomaly = c.anomalyCapture(dc, day)
	return res
}

// telemetrySeries flattens sampler points into the dataset's series form;
// nil when no points were collected.
func telemetrySeries(scope string, day time.Time, interval time.Duration, points []obs.Point) *dataset.TelemetrySeries {
	if len(points) == 0 {
		return nil
	}
	series := &dataset.TelemetrySeries{
		Scope: scope, Date: day,
		IntervalSec: int64(interval / time.Second),
		Points:      make([]dataset.TelemetryPoint, 0, len(points)),
	}
	for _, p := range points {
		tp := dataset.TelemetryPoint{Label: p.Label, AtSec: p.At.Unix()}
		for _, m := range p.Snap.Metrics {
			if m.Kind == obs.KindHistogram {
				tp.Values = append(tp.Values,
					dataset.TelemetryValue{Key: m.Key() + "_count", Value: float64(m.Count)},
					dataset.TelemetryValue{Key: m.Key() + "_sum", Value: m.Sum})
				continue
			}
			tp.Values = append(tp.Values, dataset.TelemetryValue{Key: m.Key(), Value: m.Value})
		}
		series.Points = append(series.Points, tp)
	}
	return series
}

// commitDay writes one day's results to the store and emits progress.
func (c *Campaign) commitDay(res *dayResult) {
	c.Store.AddTrancoList(res.day, res.list)
	c.Store.AddSnapshot(res.apexSnap)
	c.Store.AddSnapshot(res.wwwSnap)
	if res.nsSnap != nil {
		c.Store.AddNSSnapshot(res.nsSnap)
	}
	if res.serving != nil {
		c.Store.AddServing(res.serving)
	}
	if res.telemetry != nil {
		c.Store.AddTelemetry(res.telemetry)
	}
	if res.anomaly != nil {
		c.Store.AddAnomaly(res.anomaly)
	}
	if len(res.probes) > 0 {
		c.Store.AddProbes(res.probes...)
	}
	if c.Cfg.Progress != nil {
		fmt.Fprintf(c.Cfg.Progress, "%s scanned: apex adopters %d/%d, www adopters %d/%d\n",
			res.day.Format("2006-01-02"), len(res.apexSnap.Obs), res.apexSnap.Total,
			len(res.wwwSnap.Obs), res.wwwSnap.Total)
	}
}

// RunDaily executes the daily scan schedule over the campaign window.
// Days are scanned by a bounded pool of Cfg.DayWorkers workers, each day in
// its own scan context; snapshots commit to the Store in day order, so the
// collected dataset is identical for any worker count. No stage fails, so
// the error is always nil.
func (c *Campaign) RunDaily() error {
	var days []time.Time
	for day := c.Cfg.Start; !day.After(c.Cfg.End); day = day.AddDate(0, 0, c.Cfg.StepDays) {
		days = append(days, day)
	}
	if len(days) == 0 {
		return nil
	}
	runOrdered(len(days), c.Cfg.DayWorkers,
		func(i int) *dayResult { return c.runDay(c.newDayContext(days[i]), days[i]) },
		func(_ int, res *dayResult) { c.commitDay(res) })
	// Leave the world clock where the serial walk used to: at the final
	// scan day, so follow-on one-shot experiments see the same time.
	c.setWorldClock(days[len(days)-1].Add(12 * time.Hour))
	return nil
}

// RunHourlyECH reproduces the §4.4.2 experiment: hourly scans of
// ECH-publishing apex domains for the given number of days starting at
// start (the paper used July 21–27, 2023).
//
// Hours are pipelined like RunDaily's days: each hour scans inside its
// own scan context — fresh clock at the hour, forked recursors with
// empty caches (the per-hour flush the paper's 300s-TTL scanner implied),
// and a per-hour fleet replica with a cold answer cache — with up to
// Cfg.HourWorkers hours in flight and observations committed in strict
// hour order, so the stored dataset is byte-identical for any worker
// count. With telemetry enabled, each hour contributes its replica's
// stable snapshot; per day, the hourly snapshots fold cumulatively
// (obs.MergeSnapshots) into one hourly-ech series, mirroring the
// cumulative counters the old shared-fleet sampler reported within a day.
func (c *Campaign) RunHourlyECH(start time.Time, days int) {
	hours := days * 24
	if hours <= 0 {
		return
	}
	echDomains := c.discoverECHDomains(start)
	collectTelemetry := c.Fleet != nil && c.Cfg.TelemetryInterval > 0
	type hourResult struct {
		echObs []dataset.ECHObservation
		snap   *obs.Snapshot
	}
	var samples []obs.Point
	runOrdered(hours, c.Cfg.HourWorkers,
		func(h int) hourResult {
			now := start.Add(time.Duration(h) * time.Hour)
			hc := c.newHourContext(now)
			res := hourResult{echObs: hc.scanner.ECHScan(now, echDomains)}
			if collectTelemetry {
				// The hour clock is frozen at now, so the snapshot is
				// stamped at the hour boundary.
				res.snap = hc.fleet.Metrics.StableSnapshot()
			}
			return res
		},
		func(h int, res hourResult) {
			c.Store.AddECH(res.echObs...)
			if res.snap != nil {
				samples = append(samples, obs.Point{At: res.snap.At, Label: "hour", Snap: res.snap})
			}
		})
	// Leave the world clock where the serial walk used to: at the final
	// scanned hour.
	c.setWorldClock(start.Add(time.Duration(hours-1) * time.Hour))
	// Store one series per scan day so the timeline lines up with the rest
	// of the dataset's per-day records. Within a day, point h carries the
	// merge of hours 0..h — a cumulative curve, like a registry sampled
	// hourly would show — folded one hour at a time onto the running
	// total. The commit loop appended samples in hour order, and stable
	// series carry only integer-valued counters and gauges, whose float
	// sums are exact in any grouping, so the fold is deterministic and
	// equals a merge of every hour at once.
	for day, points := range partitionByDay(samples) {
		cumulative := make([]obs.Point, len(points))
		var total *obs.Snapshot
		for i, p := range points {
			total = obs.MergeSnapshots(total, p.Snap)
			cumulative[i] = obs.Point{At: p.At, Label: p.Label, Snap: total}
		}
		c.Store.AddTelemetry(telemetrySeries("hourly-ech", day, c.Cfg.TelemetryInterval, cumulative))
	}
}

// discoverECHDomains finds the ECH-publishing apex population for the
// hourly experiment, sorted for deterministic scan order. When the store
// already holds start's apex snapshot (RunDaily scanned that day), it is
// reused instead of re-scanning the full Tranco list — ECH presence is
// date-granular, so the stored snapshot names the same population the
// discovery scan would find.
func (c *Campaign) discoverECHDomains(start time.Time) []string {
	snap, ok := c.Store.SnapshotFor("apex", start)
	if !ok {
		// Discover the ECH population with a full scan on the world clock.
		c.setWorldClock(start)
		list := c.World.Tranco.ListFor(start)
		snap = c.Scanner.ScanList(start, "apex", list)
	}
	var echDomains []string
	for name, o := range snap.Obs {
		if o.HasECH() {
			echDomains = append(echDomains, name)
		}
	}
	// snap.Obs is a map; sort so the hourly scan order (and with it the
	// stored observation order) is deterministic for a seed.
	sort.Strings(echDomains)
	return echDomains
}

// partitionByDay splits sampler points by the UTC day they were taken on.
func partitionByDay(points []obs.Point) map[time.Time][]obs.Point {
	out := map[time.Time][]obs.Point{}
	for _, p := range points {
		day := time.Date(p.At.Year(), p.At.Month(), p.At.Day(), 0, 0, 0, 0, time.UTC)
		out[day] = append(out[day], p)
	}
	return out
}

// RunValidationCensus reproduces the Table 9 one-shot census (the paper ran
// it on January 2nd, 2024): for every domain in that day's list, determine
// HTTPS presence, signing, Cloudflare NS use, and full-chain validation.
// Domains are censused on Cfg.DayWorkers goroutines; rows are stored in
// list order.
func (c *Campaign) RunValidationCensus(day time.Time) {
	c.setWorldClock(day.Add(12 * time.Hour))
	list := c.World.Tranco.ListFor(day)
	r := c.World.GoogleResolver
	rows := make([]dataset.ValidationResult, len(list))
	forEach(len(list), c.Cfg.DayWorkers, func(i int) {
		rows[i] = c.censusRow(r, list[i])
	})
	c.Store.AddValidation(rows...)
}

// censusRow classifies one domain for the validation census.
func (c *Campaign) censusRow(r *resolver.Resolver, name string) dataset.ValidationResult {
	apex := dnswire.CanonicalName(name)
	row := dataset.ValidationResult{Domain: apex}

	httpsRRs, _, httpsOK := r.FetchRRset(apex, dnswire.TypeHTTPS)
	row.HasHTTPS = httpsOK && len(httpsRRs) > 0

	_, keySigs, keyOK := r.FetchRRset(apex, dnswire.TypeDNSKEY)
	row.Signed = keyOK && len(keySigs) > 0

	if nsRRs, _, ok := r.FetchRRset(apex, dnswire.TypeNS); ok {
		for _, rr := range nsRRs {
			if ns, ok := rr.Data.(*dnswire.NSData); ok &&
				dnswire.IsSubdomain(ns.Host, c.World.Cloudflare.InfraDomain) {
				row.CFNS = true
			}
		}
	}
	if row.Signed {
		target := dnswire.TypeDNSKEY
		if row.HasHTTPS {
			target = dnswire.TypeHTTPS
		}
		row.Result = r.ValidateChain(apex, target).String()
	}
	return row
}
