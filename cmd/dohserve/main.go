// Command dohserve stands up an encrypted-DNS serving fleet over a
// simulated world and drives a concurrent query load through it: N
// frontends — any mix of DoH, DoT, and DoQ envelopes — wrapping the
// public recursors, a shared sharded answer cache, and a load-balanced
// upstream pool with failover. It reports per-frontend and per-protocol
// traffic, pool health, cache efficiency, and end-to-end throughput —
// the fleet-scale workload view of the serving layer.
//
// Usage:
//
//	dohserve [-size N] [-seed S] [-frontends N] [-proto doh|dot|doq|mixed]
//	         [-strategy serial|race] [-balance p2|roundrobin]
//	         [-queries N] [-workers N] [-shards N] [-shardcap N] [-hot N]
//	         [-kill N] [-trace N] [-tail K] [-taillat D]
//	         [-stalewindow D] [-refreshahead F] [-cooldown D]
//	         [-chaos] [-epochs N] [-epochlen D] [-flap P]
//	         [-load] [-clients N] [-loadmodel closed|open] [-rate F] [-think D]
//	         [-zipf S] [-loaddur D] [-loadqueries N] [-stubttl D]
//	         [-loadinterval D] [-diurnal A] [-peak D]
//	         [-crowdmult F] [-crowdat D] [-crowddur D] [-crowddomain NAME] [-crowdfrac F]
//
// -proto selects the fleet's envelope mix: a single protocol, the
// shorthand "mixed" (2:1:1 DoH:DoT:DoQ), or explicit weights like
// doh=60,dot=30,doq=10. All protocols share the same cache, pool, and
// recursors, so the report compares them on equal footing.
//
// -strategy selects the stub's resolution strategy: serial failover or
// happy-eyeballs protocol racing (a 5 ms head start for the primary);
// -balance independently selects the pool's load-balancing policy. The
// report shows the strategy's winner-protocol distribution and its
// wasted-query overhead (duplicate attempts whose answers were
// discarded) — run -proto mixed -strategy race to watch the
// happy-eyeballs split. The drive layers a deterministic 1-in-8 latency
// tail over the synthetic per-member RTTs so a race has upsets to win.
//
// -kill marks that many frontend addresses unreachable halfway through
// the load, exercising failover under fire.
//
// -trace samples every exchange into a span trace and, after the load,
// dumps the N slowest exchanges as span trees — frontend receive, cache
// probe, each dial attempt with its protocol and race role, the
// upstream answer, and the commit, all on virtual-time offsets. Head
// sampling indexes arrivals, so a head-only -trace run forces
// -workers 1: under concurrency the ring's membership would depend on
// goroutine scheduling (the span trees stay valid; which exchanges they
// cover would not be reproducible for a seed).
//
// -tail K adds tail-based retention: every exchange's outcome is judged
// when it finishes and the exchange is kept if anomalous — an error,
// SERVFAIL, stale-served answer, failover, or race, or (with
// -taillat) a virtual cost at or over the threshold — ranked in a top-K
// ring by cost and dumped after the load as name, cost and flags. Only
// head-sampled exchanges record spans, so -trace N -tail K together
// (every exchange sampled) is how to get span trees for the retained
// anomalies. Tail retention keys on per-exchange properties rather than
// arrival index, so -tail lifts the single-worker forcing: a concurrent
// drill still catches every anomalous exchange the ring has room for,
// which is the point of tail sampling.
//
// All reporting reads one obs registry snapshot (Fleet.Metrics) instead
// of per-struct counters; chaos mode diffs snapshots against a
// post-warmup baseline so every number is drill-only. The fleet also
// carries a flight recorder: chaos reports aggregate its typed event
// window (pool cooldowns, stale serves, frontend deaths) and show the
// timeline's tail, and every pool row carries its health scorecard —
// consecutive-failure streak and cooldown occupancy. Chaos mode
// additionally judges the per-epoch registry snapshots against
// obs.DefaultSLO and prints the multi-window burn-rate table after the
// drill.
//
// -load replaces the uniform worker drill with the internal/workload
// engine: -clients simulated stubs — each with its own RNG stream, stub
// cache, and protocol preference dealt from -proto — draw Zipf(-zipf)
// popular domains from the working set and resolve through the fleet on
// the virtual clock, under a closed-loop think-time or open-loop
// Poisson arrival model. -diurnal/-peak shape the rate over the day and
// -crowdmult/-crowdat/-crowddur/-crowddomain/-crowdfrac schedule a
// flash crowd (optionally pinned to one domain — the thundering-herd
// case). The run is single-goroutine and deterministic for a seed; the
// report adds the engine's own counters and a load curve with one row
// per -loadinterval on the engine's virtual timeline: qps, stub-hit %
// and stale %, each the delta of the engine's counters between
// consecutive interval points. -kill and -workers are ignored under
// -load.
//
// -chaos switches to the RFC 8767 resilience drill: instead of killing
// frontend addresses, the *recursors behind* the frontends flap up and
// down at random on the virtual clock. Each epoch advances virtual time,
// re-rolls every recursor's availability with probability -flap, and
// drives a slice of the query load; the report shows stale answers served
// during outages, SERVFAILs that leaked despite the stale window, the
// per-protocol exposure (stale serves and upstream failures per envelope
// — run with -proto mixed to compare), and per-recursor recovery times
// (virtual time from a recursor coming back to its first successful
// exchange). The run is deterministic for a seed:
// one driver goroutine, all flap draws from -seed, all time virtual.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	size := flag.Int("size", 3000, "Tranco list size of the generated world")
	seed := flag.Int64("seed", 1, "generation seed (also drives chaos flaps)")
	frontends := flag.Int("frontends", 4, "number of DoH frontends")
	protoMix := flag.String("proto", "doh", "protocol mix: doh, dot, doq, mixed, or weights like doh=60,dot=30,doq=10")
	strategyName := flag.String("strategy", "serial", "resolution strategy (serial, race)")
	balanceName := flag.String("balance", "p2", "load-balancing policy (p2, roundrobin)")
	queries := flag.Int("queries", 2000, "total queries to drive")
	workers := flag.Int("workers", 8, "concurrent stub workers (chaos mode always uses 1)")
	shards := flag.Int("shards", transport.DefaultShards, "answer-cache shard count")
	shardCap := flag.Int("shardcap", transport.DefaultShardCapacity, "answer-cache entries per shard")
	hot := flag.Int("hot", 500, "working-set size (distinct names cycled through)")
	kill := flag.Int("kill", 1, "frontends to mark unreachable halfway through (ignored with -chaos)")
	traceN := flag.Int("trace", 0, "trace every exchange and dump the N slowest span trees (forces -workers 1 unless -tail is on)")
	tailK := flag.Int("tail", 0, "tail-sample anomalous exchanges into a top-K ring and dump name, cost and flags after the load (0 disables; add -trace N for their span trees)")
	tailLat := flag.Duration("taillat", 0, "with -tail: also retain exchanges at or over this virtual cost")
	staleWindow := flag.Duration("stalewindow", time.Hour, "RFC 8767 serve-stale window (0 disables)")
	refreshAhead := flag.Float64("refreshahead", 0.8, "prefetch at this fraction of TTL elapsed (0 disables)")
	cooldown := flag.Duration("cooldown", 15*time.Second, "frontend benches its recursor this long after a hard failure")
	chaos := flag.Bool("chaos", false, "flap the recursors behind the frontends instead of killing frontends")
	epochs := flag.Int("epochs", 30, "chaos epochs")
	epochLen := flag.Duration("epochlen", 90*time.Second, "virtual time advanced per chaos epoch")
	flap := flag.Float64("flap", 0.35, "per-epoch probability that a recursor is down")
	load := flag.Bool("load", false, "drive the fleet with the simulated-client workload engine instead of the uniform drill")
	clients := flag.Int("clients", 100_000, "workload: simulated stub clients")
	loadModel := flag.String("loadmodel", "closed", "workload: arrival model (closed, open)")
	openRate := flag.Float64("rate", 0.1, "workload: open-loop per-client arrival rate (queries/sec)")
	think := flag.Duration("think", 10*time.Second, "workload: closed-loop mean think time")
	zipfS := flag.Float64("zipf", 1.0, "workload: Zipf popularity exponent")
	loadDur := flag.Duration("loaddur", 10*time.Minute, "workload: simulated horizon")
	loadQueries := flag.Int("loadqueries", 0, "workload: stop after N queries (0: run the full -loaddur)")
	stubTTL := flag.Duration("stubttl", 60*time.Second, "workload: per-client stub-cache TTL")
	loadInterval := flag.Duration("loadinterval", time.Minute, "workload: telemetry sample interval (virtual time)")
	diurnal := flag.Float64("diurnal", 0, "workload: diurnal rate amplitude in [0,0.95] (0 disables)")
	peak := flag.Duration("peak", 20*time.Hour, "workload: diurnal peak time-of-day")
	crowdMult := flag.Float64("crowdmult", 0, "workload: flash-crowd rate multiplier (0: no crowd)")
	crowdAt := flag.Duration("crowdat", 2*time.Minute, "workload: flash-crowd start offset")
	crowdDur := flag.Duration("crowddur", time.Minute, "workload: flash-crowd duration")
	crowdDomain := flag.String("crowddomain", "", "workload: pin crowd draws to this domain (must be in the working set)")
	crowdFrac := flag.Float64("crowdfrac", 0.8, "workload: fraction of crowd draws pinned to -crowddomain")
	flag.Parse()

	strategy, err := transport.ParseStrategy(*strategyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	balance, err := transport.ParseBalance(*balanceName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mix, err := transport.ParseMix(*protoMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workers < 1 {
		*workers = 1
	}
	if *frontends < 1 {
		fmt.Fprintln(os.Stderr, "dohserve: -frontends must be at least 1")
		os.Exit(2)
	}
	if *chaos && (*epochs < 1 || *epochLen <= 0 || *flap < 0 || *flap > 1) {
		fmt.Fprintln(os.Stderr, "dohserve: -chaos needs -epochs ≥ 1, -epochlen > 0, and -flap in [0,1]")
		os.Exit(2)
	}

	// The campaign builds the world and the fleet with the same wiring
	// the measurement runs use; here only the fleet is driven.
	camp, err := core.NewCampaign(core.CampaignConfig{
		Size: *size, Seed: *seed,
		DoHFrontends: *frontends, DoHBalance: balance, TransportMix: mix, TransportStrategy: strategy,
		DoHShards: *shards, DoHShardCap: *shardCap,
		DoHStaleWindow: *staleWindow, DoHRefreshAhead: *refreshAhead,
		DoHFailureCooldown: *cooldown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	world, client := camp.World, camp.Fleet.Client
	if *traceN > 0 || *tailK > 0 {
		// Head sampling indexes arrivals, so a head-only dump forces one
		// worker (see the package comment); the tail ring keys on exchange
		// properties instead, so -tail runs keep their concurrency.
		if *traceN > 0 && *tailK == 0 && *workers > 1 {
			fmt.Println("tracing: forcing -workers 1 so the head-sampled ring is deterministic")
			*workers = 1
		}
		var tcfg obs.TraceConfig
		if *traceN > 0 {
			tcfg.SampleEvery = 1
			tcfg.Capacity = max(obs.DefaultTraceCapacity, 4**traceN)
		}
		if *tailK > 0 {
			tcfg.Tail = &obs.TailConfig{TopK: *tailK, Latency: *tailLat}
		}
		client.Tracer = obs.NewTracer(world.Clock, tcfg)
	}
	// The drill fleet carries a flight recorder; the chaos summary reads
	// its raw event window.
	recorder := obs.NewRecorder(world.Clock, 0)
	camp.Fleet.Recorder = recorder
	client.Recorder = recorder
	for _, fe := range camp.Fleet.Frontends {
		fe.Recorder = recorder
	}
	// Layer a deterministic 1-in-8 latency tail over the campaign's
	// synthetic per-member band: with constant per-member RTTs a race
	// would never see an upset win. Chaos mode drives queries from one
	// goroutine, so the tail sequence is reproducible for a seed.
	base := client.Latency
	var tailTick atomic.Uint64
	client.Latency = func(u *transport.Upstream) time.Duration {
		d := base(u)
		if tailTick.Add(1)%8 == 0 {
			return 4 * d
		}
		return d
	}
	day := time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)
	world.Clock.Set(day)

	list := world.Tranco.ListFor(day)
	if *hot > 0 && *hot < len(list) {
		list = list[:*hot]
	}
	fmt.Printf("world: %d domains (working set %d); fleet: %d frontends (mix %s), strategy %s, balance %s, cache %d×%d\n",
		*size, len(list), *frontends, mix, strategy, balance, *shards, *shardCap)

	if *chaos {
		runChaos(camp, list, *queries, *epochs, *epochLen, *flap, *seed)
		dumpTraces(client, *traceN)
		dumpTail(client)
		return
	}

	if *load {
		model, err := workload.ParseModel(*loadModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wcfg := workload.Config{
			Clients: *clients, Model: model, Seed: *seed,
			Domains: list, ZipfS: *zipfS,
			OpenRate: *openRate, Think: *think,
			Duration: *loadDur, MaxQueries: *loadQueries,
			StubTTL: *stubTTL, Mix: mix,
			Diurnal:  workload.Diurnal{Amplitude: *diurnal, Peak: *peak},
			Interval: *loadInterval,
		}
		if *crowdMult > 0 {
			wcfg.Crowds = []workload.FlashCrowd{{
				At: *crowdAt, Duration: *crowdDur, Multiplier: *crowdMult,
				Domain: *crowdDomain, Fraction: *crowdFrac,
			}}
		}
		runLoad(camp, wcfg)
		dumpTraces(client, *traceN)
		dumpTail(client)
		return
	}

	var ok, failed atomic.Uint64
	var killOnce sync.Once
	jobs := make(chan string)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
					failed.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	for i := 0; i < *queries; i++ {
		if i == *queries/2 && *kill > 0 {
			killOnce.Do(func() {
				stats := camp.Fleet.Pool.Stats()
				for k := 0; k < *kill && k < len(stats); k++ {
					world.Net.SetAddrDown(stats[k].Addr.Addr(), true)
					fmt.Printf("halfway: frontend %s (%v) marked unreachable\n",
						stats[k].Name, stats[k].Addr)
				}
			})
		}
		jobs <- list[i%len(list)]
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("\n%d queries in %s (%.0f q/s): %d answered, %d failed\n",
		*queries, elapsed.Round(time.Millisecond),
		float64(*queries)/elapsed.Seconds(), ok.Load(), failed.Load())
	report(camp, camp.Fleet.Metrics.Snapshot(), "totals incl. warmup")
	dumpTraces(client, *traceN)
	dumpTail(client)
}

// runLoad drives the workload engine against the campaign fleet on the
// world clock and reports the population-level view: wall-clock
// throughput (the serving-path events/sec the benchmark gates), the
// stub-cache absorption rate, and the per-interval virtual-time curve
// from consecutive points' counter deltas.
func runLoad(camp *core.Campaign, wcfg workload.Config) {
	eng, err := workload.New(wcfg, camp.World.Clock, camp.Fleet.Client)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("\nload: %d clients (%s loop), zipf %.2f over %d domains, stub TTL %v, horizon %v\n",
		wcfg.Clients, wcfg.Model, wcfg.ZipfS, len(wcfg.Domains), wcfg.StubTTL, wcfg.Duration)
	for _, fc := range wcfg.Crowds {
		pin := "no pinned domain"
		if fc.Domain != "" {
			pin = fmt.Sprintf("%.0f%% pinned to %s", 100*fc.Fraction, fc.Domain)
		}
		fmt.Printf("load: flash crowd ×%.1f at +%v for %v (%s)\n", fc.Multiplier, fc.At, fc.Duration, pin)
	}
	start := time.Now()
	sum := eng.Run()
	elapsed := time.Since(start)

	qps := float64(sum.Queries) / elapsed.Seconds()
	fmt.Printf("\n%d queries from %d clients in %s wall (%.0f q/s serving path): %d stub-cache hits (%.1f%%), %d fleet exchanges, %d stale, %d errors\n",
		sum.Queries, sum.Clients, elapsed.Round(time.Millisecond), qps,
		sum.StubHits, 100*float64(sum.StubHits)/float64(max(sum.Queries, 1)),
		sum.FleetExchanges, sum.StaleServed, sum.Errors)
	fmt.Printf("virtual span %v, event-stream digest %016x\n", sum.Virtual.Round(time.Second), sum.Digest)

	if points := eng.Points(); len(points) > 0 {
		fmt.Println("\nload curve (per virtual interval):")
		fmt.Println("  at            qps    stub-hit%  stale%")
		prev := &obs.Snapshot{}
		for _, p := range points {
			d := p.Snap.Sub(prev)
			prev = p.Snap
			q := d.Value("workload_queries_total")
			var hit, stale float64
			if q > 0 {
				hit = d.Value("workload_stub_hits_total") / q
				stale = d.Value("workload_stale_answers_total") / q
			}
			fmt.Printf("  %s  %8.1f  %8.1f  %6.2f\n", p.At.Format("15:04:05"),
				q/wcfg.Interval.Seconds(), 100*hit, 100*stale)
		}
	}
	report(camp, camp.Fleet.Metrics.Snapshot(), "totals incl. load")
}

// dumpTraces prints the n slowest traced exchanges as span trees.
func dumpTraces(client *transport.Client, n int) {
	if n <= 0 || client.Tracer == nil {
		return
	}
	traces := client.Tracer.Slowest(n)
	fmt.Printf("\nslowest %d of %d traced exchanges (virtual-time offsets):\n", len(traces), client.Tracer.Len())
	for _, tr := range traces {
		fmt.Print(tr.Tree())
	}
}

// dumpTail prints the tail-retained anomalous exchanges in rank order
// (highest virtual cost first), with the flags that got each kept.
func dumpTail(client *transport.Client) {
	if !client.Tracer.TailEnabled() {
		return
	}
	tail := client.Tracer.Tail()
	fmt.Printf("\ntail-sampled anomalies (%d retained, cost-ranked):\n", len(tail))
	for _, tr := range tail {
		fmt.Printf("  %-32s %10v  [%s]\n", tr.Name, tr.Duration.Round(time.Microsecond), tr.Flags)
	}
}

// burnTable renders the drill's multi-window SLO burn rates over the
// post-warmup base and the per-epoch samples.
func burnTable(base *obs.Snapshot, points []obs.Point) {
	slo := obs.DefaultSLO()
	burns := obs.Burn(slo, base, points)
	if len(burns) == 0 {
		return
	}
	fmt.Printf("\nSLO burn rates (avail ≥ %.3f, p99 ≤ %v, stale ≤ %.0f%%; trailing windows):\n",
		slo.Availability, slo.LatencyP99, 100*slo.StaleRatio)
	fmt.Println("  window    avail     burn    p99          stale%    burn  viol")
	for _, wb := range burns {
		r := wb.Report
		fmt.Printf("  %-8s %.4f  %6.2f   %-10v  %6.2f  %6.2f  %4d\n",
			wb.Window, r.Availability, r.AvailabilityBurn,
			r.P99.Round(time.Microsecond), 100*r.StaleRatio, r.StaleBurn, r.Violations)
	}
}

// recorderSummary aggregates the drill window's flight-recorder events
// and shows the tail of the raw timeline.
func recorderSummary(rec *obs.Recorder, from, to time.Time) {
	events := rec.Window(from, to)
	if len(events) == 0 {
		return
	}
	fmt.Printf("\nflight recorder: %d events in the drill window (%d evicted from the ring):\n",
		len(events), rec.Dropped())
	for _, ec := range obs.CountEvents(events) {
		fmt.Printf("  %-44s ×%d\n", ec.Key(), ec.Count)
	}
	last := events
	if len(last) > 8 {
		last = last[len(last)-8:]
	}
	fmt.Println("last events:")
	for _, e := range last {
		fmt.Printf("  %s  %s\n", e.At.Format("15:04:05"), e.Key())
	}
}

// flakyUpstream wraps a recursor so chaos mode can take it down: while
// down, HandleDNS returns nil — the same hard failure a frontend sees
// from a dead recursive fleet. It also measures recovery: the virtual
// time from an up-transition to the first exchange that actually reaches
// the recursor again (cache freshness and frontend cooldowns both delay
// that moment — exactly the staleness window §4.4.2 measures).
//
// Chaos mode drives queries from a single goroutine, so the fields are
// deliberately unsynchronised.
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

// runChaos executes the flapping drill: warm the cache with every
// recursor up, then per epoch advance the virtual clock, re-roll each
// recursor's availability, and drive a slice of the load.
func runChaos(camp *core.Campaign, list []string, queries, epochs int, epochLen time.Duration, flapP float64, seed int64) {
	world, client := camp.World, camp.Fleet.Client
	// One flaky wrapper per recursor org, shared by the frontends that
	// org backs (buildFleet alternates google/cloudflare by index).
	ups := []*flakyUpstream{
		{name: "google-recursor", inner: world.GoogleResolver, clock: world.Clock},
		{name: "cloudflare-recursor", inner: world.CFResolver, clock: world.Clock},
	}
	for i, fe := range camp.Fleet.Frontends {
		fe.Handler = ups[i%2]
	}

	fmt.Printf("chaos: %d epochs × %v, flap p=%.2f, stale window %v, cooldown %v\n",
		epochs, epochLen, flapP, camp.Fleet.Cache.Config().StaleWindow,
		camp.Fleet.Frontends[0].FailureCooldown)

	// Warmup: populate the shared cache while everything is healthy.
	for _, name := range list {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			fmt.Fprintf(os.Stderr, "warmup query %s failed: %v\n", name, err)
			os.Exit(1)
		}
	}
	// Baseline snapshot taken after warmup so every reported delta is
	// drill-only; the sampler records one full snapshot per epoch for the
	// resilience curve and the burn table — full, not stable: a live
	// drill wants the latency histogram so the p99 objective is evaluated.
	base := camp.Fleet.Metrics.Snapshot()
	sampler := obs.NewSampler(camp.Fleet.Metrics, world.Clock, false)

	rng := rand.New(rand.NewSource(seed))
	perEpoch := queries / epochs
	if perEpoch < 1 {
		perEpoch = 1
	}
	var answered, errored, servfails int
	next := 0
	chaosStart := world.Clock.Now()
	for e := 0; e < epochs; e++ {
		world.Clock.Advance(epochLen)
		downs := 0
		for _, u := range ups {
			u.setDown(rng.Float64() < flapP)
			if u.down {
				downs++
			}
		}
		staleBefore := client.StaleAnswers()
		for i := 0; i < perEpoch; i++ {
			m, err := client.Query(list[next%len(list)], dnswire.TypeHTTPS, true)
			next++
			switch {
			case err != nil:
				errored++
			case m.RCode == dnswire.RCodeServFail:
				servfails++
			default:
				answered++
			}
		}
		fmt.Printf("  epoch %2d: %d/%d recursors down, %3d queries, %3d stale-served\n",
			e, downs, len(ups), perEpoch, client.StaleAnswers()-staleBefore)
		sampler.Force(fmt.Sprintf("epoch%02d", e))
	}
	for _, u := range ups {
		u.setDown(false)
	}
	virtual := world.Clock.Now().Sub(chaosStart)

	fmt.Printf("\nchaos drill: %d queries over %v virtual time: %d answered, %d SERVFAIL, %d hard failures\n",
		perEpoch*epochs, virtual.Round(time.Second), answered, servfails, errored)
	diff := camp.Fleet.Metrics.Snapshot().Sub(base)
	fmt.Printf("stale answers served: %.0f (must be > 0: outages rode the stale window)\n",
		diff.Value("client_stale_answers_total"))
	if servfails == 0 && errored == 0 {
		fmt.Println("zero SERVFAILs / hard failures: every outage was covered by serve-stale")
	}
	points := sampler.Points()
	chaosCurve(camp.Fleet.Frontends, base, points)
	burnTable(base, points)
	recorderSummary(camp.Fleet.Recorder, chaosStart, world.Clock.Now())
	report(camp, diff, "drill deltas")

	fmt.Println("\nrecovery times (virtual time from recursor up-flap to first successful exchange):")
	for _, u := range ups {
		if len(u.recoveries) == 0 {
			fmt.Printf("  %-20s %d flaps, no completed recoveries observed\n", u.name, u.flaps)
			continue
		}
		var sum, max time.Duration
		for _, r := range u.recoveries {
			sum += r
			if r > max {
				max = r
			}
		}
		mean := sum / time.Duration(len(u.recoveries))
		fmt.Printf("  %-20s %d flaps, %d recoveries: mean %v, max %v\n",
			u.name, u.flaps, len(u.recoveries), mean.Round(time.Millisecond), max.Round(time.Millisecond))
	}
}

// fleetProtocols lists the fleet's distinct protocols in doh/dot/doq
// order.
func fleetProtocols(camp *core.Campaign) []transport.Protocol {
	present := map[transport.Protocol]bool{}
	for _, fe := range camp.Fleet.Frontends {
		present[fe.Proto] = true
	}
	var out []transport.Protocol
	for _, p := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
		if present[p] {
			out = append(out, p)
		}
	}
	return out
}

// frontendTotal sums one frontend_* family over the fleet's frontends.
func frontendTotal(fes []*transport.Frontend, snap *obs.Snapshot, name string) float64 {
	var total float64
	for _, fe := range fes {
		total += snap.Value(name, obs.L("frontend", fe.Name), obs.L("proto", fe.Proto.String()))
	}
	return total
}

// chaosCurve prints the per-epoch resilience curve from the sampler's
// full snapshots: stale serves and races as per-epoch deltas against the
// previous sample, pool health and cache hit rate as levels.
func chaosCurve(fes []*transport.Frontend, base *obs.Snapshot, points []obs.Point) {
	if len(points) == 0 {
		return
	}
	fmt.Println("\nresilience curve (per-epoch snapshot deltas):")
	fmt.Println("  epoch    stale   races  pool-healthy  cache-hit%")
	prev := base
	for _, p := range points {
		d := p.Snap.Sub(prev)
		hitRate := 100 * obs.Ratio(uint64(frontendTotal(fes, p.Snap, "frontend_cache_hits_total")),
			uint64(frontendTotal(fes, p.Snap, "frontend_served_total")))
		fmt.Printf("  %-7s %6.0f  %6.0f  %7.0f/%-4.0f  %9.1f\n",
			p.Label, d.Value("client_stale_answers_total"), d.Value("strategy_races_total"),
			p.Snap.Value("pool_healthy"), p.Snap.Value("pool_members"), hitRate)
		prev = p.Snap
	}
}

// report renders the fleet's state from one registry snapshot — the
// per-frontend and per-protocol lifecycle counters, strategy telemetry,
// exchange-latency histogram, pool health, and shared-cache statistics.
// Chaos mode passes a Sub-diffed snapshot so counters read as drill
// deltas while gauges keep their current levels.
func report(camp *core.Campaign, snap *obs.Snapshot, label string) {
	type lifecycleRow struct {
		name   string
		labels []obs.Label
	}
	lifecycle := func(rows []lifecycleRow) {
		for _, row := range rows {
			fmt.Printf("  %-22s served %6.0f  hits %6.0f  stale %5.0f  neg %4.0f  prefetch %4.0f  upstream-fail %4.0f\n",
				row.name,
				snap.Value("frontend_served_total", row.labels...),
				snap.Value("frontend_cache_hits_total", row.labels...),
				snap.Value("frontend_stale_served_total", row.labels...),
				snap.Value("frontend_negative_hits_total", row.labels...),
				snap.Value("frontend_prefetches_total", row.labels...),
				snap.Value("frontend_upstream_failures_total", row.labels...))
		}
	}
	fmt.Printf("\nfrontends (cache lifecycle, %s):\n", label)
	var rows []lifecycleRow
	for _, fe := range camp.Fleet.Frontends {
		rows = append(rows, lifecycleRow{name: fe.Name,
			labels: []obs.Label{obs.L("frontend", fe.Name), obs.L("proto", fe.Proto.String())}})
	}
	lifecycle(rows)
	if protos := fleetProtocols(camp); len(protos) > 1 {
		// Per-protocol totals aggregate the labeled frontend families by
		// their proto label.
		totals := map[transport.Protocol]map[string]float64{}
		for _, fe := range camp.Fleet.Frontends {
			if totals[fe.Proto] == nil {
				totals[fe.Proto] = map[string]float64{}
			}
			labels := []obs.Label{obs.L("frontend", fe.Name), obs.L("proto", fe.Proto.String())}
			for _, name := range []string{
				"frontend_served_total", "frontend_cache_hits_total",
				"frontend_stale_served_total", "frontend_negative_hits_total",
				"frontend_prefetches_total", "frontend_upstream_failures_total",
			} {
				totals[fe.Proto][name] += snap.Value(name, labels...)
			}
		}
		fmt.Println("\nper-protocol totals:")
		for _, p := range protos {
			t := totals[p]
			fmt.Printf("  %-5s served %6.0f  hits %6.0f  stale %5.0f  neg %4.0f  prefetch %4.0f  upstream-fail %4.0f\n",
				p, t["frontend_served_total"], t["frontend_cache_hits_total"],
				t["frontend_stale_served_total"], t["frontend_negative_hits_total"],
				t["frontend_prefetches_total"], t["frontend_upstream_failures_total"])
		}
	}

	fmt.Printf("\nresolution strategy %s (%s):\n", camp.Fleet.StrategyStats().Strategy, label)
	exchanges := snap.Value("client_exchanges_total")
	wasted := snap.Value("strategy_wasted_total")
	fmt.Printf("  %.0f exchanges, %.0f attempts: %.0f races started, %.0f losers cancelled\n",
		exchanges, snap.Value("strategy_attempts_total"), snap.Value("strategy_races_total"),
		snap.Value("strategy_losers_cancelled_total"))
	overhead := 0.0
	if exchanges > 0 {
		overhead = 100 * wasted / exchanges
	}
	fmt.Printf("  wasted upstream queries: %.0f (%.1f%% duplicate-load overhead)\n", wasted, overhead)
	var wins float64
	for _, p := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
		wins += snap.Value("strategy_wins_total", obs.L("proto", p.String()))
	}
	if wins > 0 {
		fmt.Print("  winner protocols:")
		for _, p := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
			if n := snap.Value("strategy_wins_total", obs.L("proto", p.String())); n > 0 {
				fmt.Printf("  %s %.0f (%.1f%%)", p, n, 100*n/wins)
			}
		}
		fmt.Println()
	}
	if lat, ok := snap.Get("exchange_latency_seconds"); ok && lat.Count > 0 {
		fmt.Printf("  exchange latency: %d observed, mean %s\n",
			lat.Count, (time.Duration(lat.Sum / float64(lat.Count) * float64(time.Second))).Round(time.Microsecond))
	}

	fmt.Printf("\npool (%.0f/%.0f members healthy; scorecard: failure streak and cooldown occupancy):\n",
		snap.Value("pool_healthy"), snap.Value("pool_members"))
	for _, st := range camp.Fleet.Pool.Stats() {
		labels := []obs.Label{obs.L("member", st.Name), obs.L("proto", st.Proto.String())}
		fmt.Printf("  %-22s queries %6.0f  failures %3.0f  streak %2d  benched %-8v down=%-5v rtt=%s\n",
			st.Name, snap.Value("pool_member_queries_total", labels...),
			snap.Value("pool_member_failures_total", labels...),
			st.ConsecFails, st.CooldownTotal.Round(time.Second), st.Down,
			(time.Duration(snap.Value("pool_member_rtt_seconds", labels...) * float64(time.Second))).Round(time.Microsecond))
	}

	// The frontends count every probe of the shared cache: a served
	// query that was not a fresh hit was a miss.
	fes := camp.Fleet.Frontends
	hits := frontendTotal(fes, snap, "frontend_cache_hits_total")
	misses := frontendTotal(fes, snap, "frontend_served_total") - hits
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	fmt.Printf("\nshared cache: %.0f entries (%.0f negative), %.0f hits / %.0f misses (%.1f%% hit rate), %.0f evictions\n",
		snap.Value("cache_entries"), snap.Value("cache_negative_entries"),
		hits, misses, hitRate, snap.Value("cache_evictions_total"))
	fmt.Printf("lifecycle: %.0f stale serves, %.0f negative hits, %.0f prefetches\n",
		frontendTotal(fes, snap, "frontend_stale_served_total"),
		frontendTotal(fes, snap, "frontend_negative_hits_total"),
		snap.Value("fleet_prefetches_total"))
	fmt.Printf("recursor-side queries (incl. iterative lookups): %d\n", camp.World.Net.QueryCount())
}
