// Command dohserve stands up an encrypted-DNS serving fleet over a
// simulated world and drills it under failure with the internal/workload
// engine: N frontends — any mix of DoH, DoT, and DoQ envelopes — over the
// public recursors, a shared sharded answer cache, and a load-balanced
// upstream pool with failover.
//
// Usage:
//
//	dohserve [-size N] [-seed S] [-frontends N] [-proto doh|dot|doq|mixed]
//	         [-strategy serial|race] [-hot N] [-epochs N] [-epochlen D]
//	         [-queries N] [-kill N] [-chaos] [-trace N] [-tail K] [-clients N]
//
// The drill is one loop on the world's virtual clock. One query per name
// of the -hot working set warms the cache, and a registry snapshot then
// becomes the baseline every reported counter is a delta against. Each of
// -epochs epochs applies its perturbation, runs one workload engine
// (seed -seed plus the epoch index) for -epochlen with the epoch's share
// of the -queries budget (0: the full horizon), and samples the registry.
//
// Two perturbations compose: -kill N marks N frontend addresses
// unreachable at the middle epoch, and -chaos re-rolls each recursor's
// availability with probability 0.35 at every epoch (the RFC 8767
// serve-stale drill, reported with per-recursor recovery times: virtual
// time from a recursor coming back to its first successful exchange).
//
// The fleet is the campaign's, with serve-stale for an hour, prefetch at
// 80% of TTL and a 15 s recursor cooldown. The -clients stubs are the
// engine's open-loop population (see internal/workload) drawing Zipf(1)
// from the working set; -proto also deals each client a protocol
// preference, and a deterministic 1-in-8 latency tail gives -strategy
// race upsets to win. -trace N traces every exchange and dumps the N
// costliest of the drill (virtual cost, then name) as span trees; -tail
// K keeps the top-K anomalous ones (an error, SERVFAIL, stale answer,
// failover or race).
//
// The report adds a per-epoch curve, the obs.DefaultSLO burn table, the
// flight recorder's events, and per-frontend, per-protocol, strategy,
// pool and cache tables. Stdout is a pure function of the flags; the
// wall-clock throughput goes to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dohserve:", err)
		os.Exit(2)
	}
}

// run parses args, builds the fleet and drives the drill, writing the
// report to stdout and the wall-clock throughput to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dohserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 3000, "Tranco list size of the generated world")
	seed := fs.Int64("seed", 1, "generation seed (also drives the workload and the chaos flaps)")
	frontends := fs.Int("frontends", 4, "number of encrypted-DNS frontends")
	protoMix := fs.String("proto", "doh", "protocol mix: doh, dot, doq, mixed, or weights like doh=60,dot=30,doq=10")
	strategyName := fs.String("strategy", "serial", "resolution strategy (serial, race)")
	hot := fs.Int("hot", 500, "working-set size (the popularity-ranked names the clients draw from)")
	epochs := fs.Int("epochs", 30, "drill epochs")
	epochLen := fs.Duration("epochlen", 90*time.Second, "virtual time per epoch")
	queries := fs.Int("queries", 2000, "queries over the whole drill, split evenly across epochs (0: every epoch's full horizon)")
	kill := fs.Int("kill", 1, "frontend addresses to mark unreachable at the middle epoch")
	chaos := fs.Bool("chaos", false, "flap the recursors behind the frontends at every epoch")
	traceN := fs.Int("trace", 0, "trace every exchange and dump the span trees of the drill's N costliest")
	tailK := fs.Int("tail", 0, "tail-sample anomalous exchanges into a top-K ring and dump name, cost and flags (0 disables; add -trace N for their span trees)")
	clients := fs.Int("clients", 100_000, "simulated stub clients")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strategy, err1 := transport.ParseStrategy(*strategyName)
	mix, err2 := transport.ParseMix(*protoMix)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	switch {
	case *frontends < 1:
		return errors.New("-frontends must be at least 1")
	case *epochs < 1 || *epochLen <= 0:
		return errors.New("-epochs must be at least 1 and -epochlen positive")
	case *queries < 0 || *kill < 0:
		return errors.New("-queries and -kill must not be negative")
	}

	// The drill's fixed fleet and load shape.
	const (
		staleWindow     = time.Hour        // RFC 8767 serve-stale
		refreshAhead    = 0.8              // prefetch at this fraction of TTL elapsed
		failureCooldown = 15 * time.Second // a frontend benches its recursor after a hard failure
		flapProb        = 0.35             // per-epoch chance that -chaos takes a recursor down
		zipfS           = 1.0              // popularity exponent over the working set
	)

	// The campaign builds the world and the fleet with the same wiring
	// the measurement runs use; here only the fleet is driven.
	camp, err := core.NewCampaign(core.CampaignConfig{Size: *size, Seed: *seed,
		DoHFrontends: *frontends, TransportMix: mix, TransportStrategy: strategy,
		DoHStaleWindow: staleWindow, DoHRefreshAhead: refreshAhead, DoHFailureCooldown: failureCooldown})
	if err != nil {
		return err
	}
	world, client := camp.World, camp.Fleet.Client
	if *traceN > 0 || *tailK > 0 {
		var tcfg obs.TraceConfig
		if *traceN > 0 {
			tcfg.SampleEvery, tcfg.Capacity = 1, *traceN
		}
		if *tailK > 0 {
			tcfg.Tail = &obs.TailConfig{TopK: *tailK}
		}
		client.Tracer = obs.NewTracer(world.Clock, tcfg)
	}
	// The summary reads the flight recorder's raw event window.
	recorder := obs.NewRecorder(world.Clock, 0)
	client.Recorder = recorder
	for _, fe := range camp.Fleet.Frontends {
		fe.Recorder = recorder
	}
	// Layer a deterministic 1-in-8 latency tail over the campaign's
	// synthetic per-member band: with constant per-member RTTs a race
	// would never see an upset win.
	base := client.Latency
	var exchanges uint64
	client.Latency = func(u *transport.Upstream) time.Duration {
		if exchanges++; exchanges%8 == 0 {
			return 4 * base(u)
		}
		return base(u)
	}
	// One flaky wrapper per recursor org, shared by the frontends that
	// org backs (buildFleet alternates google/cloudflare by index); only
	// -chaos ever takes one down.
	ups := []*flakyUpstream{
		{name: "google-recursor", inner: world.GoogleResolver, clock: world.Clock},
		{name: "cloudflare-recursor", inner: world.CFResolver, clock: world.Clock},
	}
	for i, fe := range camp.Fleet.Frontends {
		fe.Handler = ups[i%2]
	}
	day := time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)
	world.Clock.Set(day)
	list := world.Tranco.ListFor(day)
	if *hot > 0 && *hot < len(list) {
		list = list[:*hot]
	}

	wcfg := workload.Config{Clients: *clients, Domains: list, ZipfS: zipfS, Duration: *epochLen, Mix: mix}
	cache := camp.Fleet.Cache.Config()
	fmt.Fprintf(stdout, "world: %d domains (working set %d); fleet: %d frontends (mix %s), strategy %s, balance %s, cache %d×%d\n",
		*size, len(list), *frontends, mix, strategy, camp.Cfg.DoHBalance, cache.Shards, cache.ShardCapacity)
	fmt.Fprintf(stdout, "drill: %d epochs × %v, query budget %d (0: full horizon); %d clients (open loop, %.1f q/s each), zipf %.2f, stub TTL %v; stale window %v, cooldown %v\n",
		*epochs, *epochLen, *queries, *clients, workload.OpenRate, zipfS, workload.StubTTL,
		cache.StaleWindow, camp.Fleet.Frontends[0].FailureCooldown)
	fmt.Fprintf(stdout, "perturbations: -kill %d at epoch %d, -chaos %v (flap probability %.2f)\n",
		min(*kill, *frontends), *epochs/2, *chaos, flapProb)

	// Warm up the cache while everything is healthy, then take the
	// baseline. The sampler keeps full snapshots, not stable ones: the
	// burn table's p99 objective needs the latency histogram.
	for _, name := range list {
		if _, err := client.Query(name, dnswire.TypeHTTPS, false); err != nil {
			return fmt.Errorf("warm-up query %s: %w", name, err)
		}
	}
	baseline := camp.Fleet.Metrics.Snapshot()
	sampler := obs.NewSampler(camp.Fleet.Metrics, world.Clock, false)
	flaps := rand.New(rand.NewSource(*seed))
	start := world.Clock.Now()
	rows := make([]epochRow, *epochs)
	var driven, stubHits uint64
	var wall time.Duration
	for e := range rows {
		if e == *epochs/2 {
			for _, st := range camp.Fleet.Pool.Stats()[:min(*kill, *frontends)] {
				world.Net.SetAddrDown(st.Addr.Addr(), true)
				fmt.Fprintf(stdout, "epoch %d: frontend %s (%v) marked unreachable\n", e, st.Name, st.Addr)
			}
		}
		for _, u := range ups {
			if *chaos {
				u.setDown(flaps.Float64() < flapProb)
			}
			if u.down {
				rows[e].down++
			}
		}
		// The budget split carries any shortfall (an epoch whose horizon
		// ran out of arrivals) into the next epoch's share.
		share := 0
		if *queries > 0 {
			share = *queries*(e+1) / *epochs - int(driven)
		}
		if *queries > 0 && share <= 0 {
			world.Clock.Advance(*epochLen)
		} else {
			wcfg.Seed, wcfg.MaxQueries = *seed+int64(e), share
			eng, err := workload.New(wcfg, world.Clock, client)
			if err != nil {
				return err
			}
			began := time.Now()
			rows[e].sum = eng.Run()
			wall += time.Since(began)
		}
		driven += rows[e].sum.Queries
		stubHits += rows[e].sum.StubHits
		sampler.Force(fmt.Sprintf("epoch%02d", e))
	}
	end := world.Clock.Now()
	fmt.Fprintf(stderr, "%d queries in %s wall (%.0f q/s serving path)\n",
		driven, wall.Round(time.Millisecond), float64(driven)/wall.Seconds())

	diff := camp.Fleet.Metrics.Snapshot().Sub(baseline)
	fmt.Fprintf(stdout, "\n%d queries from %d clients per epoch over %v virtual: %d stub-cache hits (%.1f%%), %.0f fleet exchanges, %.0f stale, %.0f SERVFAIL, %.0f errors\n",
		driven, *clients, end.Sub(start).Round(time.Second), stubHits, 100*obs.Ratio(stubHits, driven),
		diff.Value("client_exchanges_total"), diff.Value("client_stale_answers_total"),
		diff.Value("client_servfail_total"), diff.Value("client_errors_total"))
	points := sampler.Points()
	epochCurve(stdout, camp.Fleet.Frontends, baseline, points, rows)
	burnTable(stdout, baseline, points)
	recorderSummary(stdout, recorder, start, end)
	report(stdout, camp, diff)
	if *chaos {
		recoveryTimes(stdout, ups)
	}
	dumpTraces(stdout, client, *traceN)
	dumpTail(stdout, client)
	return nil
}

// epochRow is one epoch's perturbation and engine totals.
type epochRow struct {
	down int // recursors down
	sum  workload.Summary
}

// epochCurve prints the per-epoch curve from the sampler's full
// snapshots: the engine's queries and stub hits, stale serves and races
// as per-epoch deltas against the previous sample, pool health and cache
// hit rate as levels.
func epochCurve(w io.Writer, fes []*transport.Frontend, base *obs.Snapshot, points []obs.Point, rows []epochRow) {
	fmt.Fprintln(w, "\nepoch curve (per-epoch deltas; pool and cache hit rate are levels):")
	fmt.Fprintln(w, "  epoch    down  queries  stub-hit%   stale   races  pool-healthy  cache-hit%")
	prev := base
	for i, p := range points {
		d := p.Snap.Sub(prev)
		prev = p.Snap
		s := rows[i].sum
		hitRate := 100 * obs.Ratio(uint64(frontendTotal(fes, p.Snap, "frontend_cache_hits_total")),
			uint64(frontendTotal(fes, p.Snap, "frontend_served_total")))
		fmt.Fprintf(w, "  %-7s %3d/2  %7d  %9.1f  %6.0f  %6.0f  %7.0f/%-4.0f  %9.1f\n",
			p.Label, rows[i].down, s.Queries, 100*obs.Ratio(s.StubHits, s.Queries),
			d.Value("client_stale_answers_total"), d.Value("strategy_races_total"),
			p.Snap.Value("pool_healthy"), p.Snap.Value("pool_members"), hitRate)
	}
}

// dumpTraces prints the n costliest traced exchanges as span trees.
func dumpTraces(w io.Writer, client *transport.Client, n int) {
	if n <= 0 || client.Tracer == nil {
		return
	}
	traces := client.Tracer.Slowest(n)
	fmt.Fprintf(w, "\n%d costliest traced exchanges (virtual-time offsets):\n", len(traces))
	for _, tr := range traces {
		fmt.Fprint(w, tr.Tree())
	}
}

// dumpTail prints the tail-retained anomalous exchanges in rank order
// (highest virtual cost first), with the flags that got each kept.
func dumpTail(w io.Writer, client *transport.Client) {
	if !client.Tracer.TailEnabled() {
		return
	}
	tail := client.Tracer.Tail()
	fmt.Fprintf(w, "\ntail-sampled anomalies (%d retained, cost-ranked):\n", len(tail))
	for _, tr := range tail {
		fmt.Fprintf(w, "  %-32s %10v  [%s]\n", tr.Name, tr.Duration.Round(time.Microsecond), tr.Flags)
	}
}

// burnTable renders the drill's multi-window SLO burn rates over the
// post-warmup base and the per-epoch samples.
func burnTable(w io.Writer, base *obs.Snapshot, points []obs.Point) {
	slo := obs.DefaultSLO()
	fmt.Fprintf(w, "\nSLO burn rates (avail ≥ %.3f, p99 ≤ %v, stale ≤ %.0f%%; trailing windows):\n",
		slo.Availability, slo.LatencyP99, 100*slo.StaleRatio)
	fmt.Fprintln(w, "  window    avail     burn    p99          stale%    burn  viol")
	for _, wb := range obs.Burn(slo, base, points) {
		r := wb.Report
		fmt.Fprintf(w, "  %-8s %.4f  %6.2f   %-10v  %6.2f  %6.2f  %4d\n",
			wb.Window, r.Availability, r.AvailabilityBurn,
			r.P99.Round(time.Microsecond), 100*r.StaleRatio, r.StaleBurn, r.Violations)
	}
}

// recorderSummary aggregates the drill window's flight-recorder events
// and shows the tail of the raw timeline.
func recorderSummary(w io.Writer, rec *obs.Recorder, from, to time.Time) {
	events := rec.Window(from, to)
	if len(events) == 0 {
		return
	}
	fmt.Fprintf(w, "\nflight recorder: %d events in the drill window (%d evicted from the ring):\n",
		len(events), rec.Dropped())
	for _, ec := range obs.CountEvents(events) {
		fmt.Fprintf(w, "  %-44s ×%d\n", ec.Key(), ec.Count)
	}
	last := events[max(len(events)-8, 0):]
	fmt.Fprintln(w, "last events:")
	for _, e := range last {
		fmt.Fprintf(w, "  %s  %s\n", e.At.Format("15:04:05"), e.Key())
	}
}

// flakyUpstream wraps a recursor so -chaos can take it down: while down,
// HandleDNS returns nil, the hard failure a frontend sees from a dead
// recursive fleet. It measures recovery: the virtual time from an
// up-transition to the first exchange that reaches the recursor again
// (cache freshness and frontend cooldowns both delay that moment — the
// staleness window §4.4.2 measures). The drill runs on one goroutine, so
// the fields are unsynchronised.
type flakyUpstream struct {
	name  string
	inner simnet.DNSHandler
	clock *simnet.Clock

	down       bool
	flaps      int
	upAt       time.Time
	waiting    bool
	recoveries []time.Duration
}

func (f *flakyUpstream) HandleDNS(q *dnswire.Message) *dnswire.Message {
	if f.down {
		return nil
	}
	resp := f.inner.HandleDNS(q)
	if resp != nil && f.waiting {
		f.waiting = false
		f.recoveries = append(f.recoveries, f.clock.Now().Sub(f.upAt))
	}
	return resp
}

// setDown flips availability, recording flap and recovery bookkeeping.
func (f *flakyUpstream) setDown(down bool) {
	if down == f.down {
		return
	}
	f.down = down
	if down {
		f.flaps++
		f.waiting = false
	} else {
		f.upAt = f.clock.Now()
		f.waiting = true
	}
}

// recoveryTimes prints each recursor's flap count and the mean and
// maximum of its completed recoveries.
func recoveryTimes(w io.Writer, ups []*flakyUpstream) {
	fmt.Fprintln(w, "\nrecovery times (virtual time from recursor up-flap to first successful exchange):")
	for _, u := range ups {
		var sum, longest time.Duration
		for _, r := range u.recoveries {
			sum += r
			longest = max(longest, r)
		}
		mean := sum / time.Duration(max(len(u.recoveries), 1))
		fmt.Fprintf(w, "  %-20s %d flaps, %d recoveries: mean %v, max %v\n",
			u.name, u.flaps, len(u.recoveries), mean.Round(time.Millisecond), longest.Round(time.Millisecond))
	}
}

// frontendTotal sums one frontend_* family over the given frontends.
func frontendTotal(fes []*transport.Frontend, snap *obs.Snapshot, name string) float64 {
	var total float64
	for _, fe := range fes {
		total += snap.Value(name, obs.L("frontend", fe.Name), obs.L("proto", fe.Proto.String()))
	}
	return total
}

// lifecycleRow prints one row of lifecycle counters summed over fes.
func lifecycleRow(w io.Writer, name string, fes []*transport.Frontend, snap *obs.Snapshot) {
	v := func(family string) float64 { return frontendTotal(fes, snap, "frontend_"+family+"_total") }
	fmt.Fprintf(w, "  %-22s served %6.0f  hits %6.0f  stale %5.0f  neg %4.0f  prefetch %4.0f  upstream-fail %4.0f\n",
		name, v("served"), v("cache_hits"), v("stale_served"), v("negative_hits"), v("prefetches"), v("upstream_failures"))
}

// report renders the fleet's state from one baseline-diffed registry
// snapshot — the per-frontend and per-protocol lifecycle counters,
// strategy telemetry, exchange-latency histogram, pool health, and
// shared-cache statistics. Counters read as drill deltas while gauges
// keep their current levels.
func report(w io.Writer, camp *core.Campaign, snap *obs.Snapshot) {
	fes := camp.Fleet.Frontends
	fmt.Fprintln(w, "\nfrontends (cache lifecycle, drill deltas):")
	for _, fe := range fes {
		lifecycleRow(w, fe.Name, []*transport.Frontend{fe}, snap)
	}
	protos := []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ}
	byProto := map[transport.Protocol][]*transport.Frontend{}
	for _, fe := range fes {
		byProto[fe.Proto] = append(byProto[fe.Proto], fe)
	}
	if len(byProto) > 1 {
		fmt.Fprintln(w, "\nper-protocol totals:")
		for _, p := range protos {
			if of := byProto[p]; len(of) > 0 {
				lifecycleRow(w, p.String(), of, snap)
			}
		}
	}

	fmt.Fprintf(w, "\nresolution strategy %s (drill deltas):\n", camp.Fleet.StrategyStats().Strategy)
	exchanges := snap.Value("client_exchanges_total")
	wasted := snap.Value("strategy_wasted_total")
	fmt.Fprintf(w, "  %.0f exchanges, %.0f attempts: %.0f races started, %.0f losers cancelled\n",
		exchanges, snap.Value("strategy_attempts_total"), snap.Value("strategy_races_total"),
		snap.Value("strategy_losers_cancelled_total"))
	fmt.Fprintf(w, "  wasted upstream queries: %.0f (%.1f%% duplicate-load overhead)\n", wasted, 100*wasted/max(exchanges, 1))
	var wins float64
	for _, p := range protos {
		wins += snap.Value("strategy_wins_total", obs.L("proto", p.String()))
	}
	if wins > 0 {
		fmt.Fprint(w, "  winner protocols:")
		for _, p := range protos {
			if n := snap.Value("strategy_wins_total", obs.L("proto", p.String())); n > 0 {
				fmt.Fprintf(w, "  %s %.0f (%.1f%%)", p, n, 100*n/wins)
			}
		}
		fmt.Fprintln(w)
	}
	if lat, ok := snap.Get("exchange_latency_seconds"); ok && lat.Count > 0 {
		fmt.Fprintf(w, "  exchange latency: %d observed, mean %s\n",
			lat.Count, (time.Duration(lat.Sum / float64(lat.Count) * float64(time.Second))).Round(time.Microsecond))
	}

	fmt.Fprintf(w, "\npool (%.0f/%.0f members healthy; scorecard: failure streak and cooldown occupancy):\n",
		snap.Value("pool_healthy"), snap.Value("pool_members"))
	for _, st := range camp.Fleet.Pool.Stats() {
		labels := []obs.Label{obs.L("member", st.Name), obs.L("proto", st.Proto.String())}
		fmt.Fprintf(w, "  %-22s queries %6.0f  failures %3.0f  streak %2d  benched %-8v down=%-5v rtt=%s\n",
			st.Name, snap.Value("pool_member_queries_total", labels...),
			snap.Value("pool_member_failures_total", labels...),
			st.ConsecFails, st.CooldownTotal.Round(time.Second), st.Down,
			(time.Duration(snap.Value("pool_member_rtt_seconds", labels...) * float64(time.Second))).Round(time.Microsecond))
	}

	// The frontends count every probe of the shared cache: a served
	// query that was not a fresh hit was a miss.
	hits := frontendTotal(fes, snap, "frontend_cache_hits_total")
	misses := frontendTotal(fes, snap, "frontend_served_total") - hits
	fmt.Fprintf(w, "\nshared cache: %.0f entries (%.0f negative), %.0f hits / %.0f misses (%.1f%% hit rate), %.0f evictions\n",
		snap.Value("cache_entries"), snap.Value("cache_negative_entries"),
		hits, misses, 100*obs.Ratio(uint64(hits), uint64(hits+misses)), snap.Value("cache_evictions_total"))
	fmt.Fprintf(w, "lifecycle: %.0f stale serves, %.0f negative hits, %.0f prefetches\n",
		frontendTotal(fes, snap, "frontend_stale_served_total"),
		frontendTotal(fes, snap, "frontend_negative_hits_total"),
		snap.Value("fleet_prefetches_total"))
	fmt.Fprintf(w, "recursor-side queries (incl. iterative lookups): %d\n", camp.World.Net.QueryCount())
}
