package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

type kind uint8

const (
	kindDaily  kind = iota // core.RunDaily
	kindHourly             // core.RunHourlyECH
	kindServe              // workload.Engine over the campaign fleet
)

// shape is one workload: what is run, at what size, and — for the trace
// phase — how much of it is rebuilt under the span recorder.
type shape struct {
	name, why string
	kind      kind
	size      int  // Tranco list size of the generated world
	days      int  // scan days (daily) or days of hourly scans (hourly)
	fleet     bool // through the 4-frontend mixed racing fleet
	clients   int  // serve: open-loop client population
	queries   int  // serve: client queries per repetition
	// cacheShards/cacheCap shrink the fleet cache (0 keeps the defaults).
	cacheShards, cacheCap int
	// minHit/maxHit are the binding conditions on the fleet cache's hit
	// ratio that make a serve workload the one it claims to be.
	minHit, maxHit float64

	traceDays    int // daily: scan days in the traced rebuild
	traceHours   int // hourly: scan hours in the traced rebuild
	traceQueries int // serve: client queries in the traced rebuild
	pairDays     int // days in the 1-worker / P-worker pair (fleet campaigns)
}

// Sizes give a timed repetition of about 5 s on a 2-core shared host (see
// README "Sizes"); the driver's time cap is why days and queries are below
// the 45-day / 2M-query shapes the workloads were first measured at.
var shapes = []shape{
	{name: "daily-direct", kind: kindDaily, size: 3000, days: 15, traceDays: 3,
		why: "the paper's method, stub to public recursor, one goroutine: recursor, DNSSEC and authoritatives do the work, transport none"},
	{name: "daily-fleet", kind: kindDaily, size: 3000, days: 16, fleet: true, traceDays: 2, pairDays: 4,
		why: "same campaign through the DoH/DoT/DoQ racing fleet with telemetry and P day workers: adds envelopes, shared cache, obs, scheduler"},
	{name: "hourly-ech", kind: kindHourly, size: 3000, days: 5, fleet: true, traceHours: 12, pairDays: 1,
		why: "small hot set re-queried hourly behind a per-hour cache flush and context fork: cold-cache recursion dominates, not list breadth"},
	{name: "serve-hot", kind: kindServe, size: 500, fleet: true, clients: 1_000_000, queries: 900_000, minHit: 0.90, maxHit: 1, traceQueries: 150_000,
		why: "read-mostly Zipf load on a small world: fleet-cache hits dominate, so codec, cache, pool and strategy do the work"},
	{name: "serve-miss", kind: kindServe, size: 20000, fleet: true, clients: 1_000_000, queries: 260_000, cacheShards: 4, cacheCap: 64, minHit: 0, maxHit: 0.70, traceQueries: 80_000,
		why: "working set far above a 4x64 cache: inserts, evictions, the frontend miss path and the recursor's warm path carry the load"},
}

// smoke shrinks a shape to the size the harness tests run: every code path,
// no timing claim.
func (sh shape) smoke() shape {
	sh.size = min(sh.size, 150)
	if sh.kind == kindServe && sh.cacheShards > 0 {
		// Keep the working set above the small cache.
		sh.size, sh.cacheShards, sh.cacheCap = 150, 1, 8
	}
	sh.days = min(sh.days, 2)
	if sh.kind == kindHourly {
		sh.days = 1
	}
	sh.clients, sh.queries = min(sh.clients, 20_000), min(sh.queries, 20_000)
	sh.traceDays, sh.traceHours, sh.traceQueries = min(sh.traceDays, 1), min(sh.traceHours, 2), min(sh.traceQueries, 5_000)
	sh.pairDays = min(sh.pairDays, 1)
	return sh
}

func shapeByName(name string) (shape, bool) {
	for _, sh := range shapes {
		if sh.name == name {
			return sh, true
		}
	}
	return shape{}, false
}

var (
	// dailyStart covers the NS-scan and connectivity-probe phases, so every
	// per-day stage runs.
	dailyStart = time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	// hourlyStart sits inside the ECH deployment era, like the paper's
	// July 21–27 2023 experiment.
	hourlyStart = time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	// serveAt is when the serve workloads' clients start querying.
	serveAt = dailyStart.Add(12 * time.Hour)

	fleetMix = transport.Mix{DoH: 2, DoT: 1, DoQ: 1}
)

const fleetFrontends = 4

// config is the campaign configuration of the shape. workers is the day
// and hour worker count; obsOn switches the telemetry series and the
// anomaly tier (the shipped shape has them on).
func (sh shape) config(days, workers int, obsOn bool) core.CampaignConfig {
	cfg := core.CampaignConfig{
		Size: sh.size, Seed: worldSeed, StepDays: 1,
		Start: dailyStart, End: dailyStart.AddDate(0, 0, days-1),
		DayWorkers: workers, HourWorkers: workers,
		DoHShards: sh.cacheShards, DoHShardCap: sh.cacheCap,
	}
	if sh.fleet {
		cfg.DoHFrontends = fleetFrontends
		cfg.TransportMix = fleetMix
		cfg.TransportStrategy = transport.StrategyRace
		if obsOn {
			cfg.TelemetryInterval = time.Hour
			cfg.AnomalyCapture = true
		}
	}
	return cfg
}

// newCampaign builds a fresh campaign of the shape. daily-direct is the
// single-goroutine workload: no fleet, one day worker, one scanner worker.
func (sh shape) newCampaign(days, workers int, obsOn bool) (*core.Campaign, error) {
	if !sh.fleet {
		workers = 1
	}
	c, err := core.NewCampaign(sh.config(days, workers, obsOn))
	if err != nil {
		return nil, err
	}
	if !sh.fleet {
		c.Scanner.Concurrency = 1
	}
	return c, nil
}

// engineConfig is the serve workloads' client population: seed decides
// who asks for which name when.
func (sh shape) engineConfig(seed int64, names []string, queries int) workload.Config {
	return workload.Config{
		Clients: sh.clients, Model: workload.ModelOpen, Seed: seed,
		Domains: names, ZipfS: 1,
		Duration: 24 * time.Hour, MaxQueries: queries,
		Mix: fleetMix,
	}
}

// meter measures one timed region from outside the program: wall and CPU
// time, the allocator's counters, and the simulated network's query count.
type meter struct {
	net  *simnet.Network
	t0   time.Time
	cpu0 time.Duration
	m0   runtime.MemStats
	q0   uint64
}

type measured struct {
	wall, cpu                    time.Duration
	mallocs, allocBytes, queries uint64
}

func startMeter(net *simnet.Network) *meter {
	m := &meter{net: net}
	// Start every region from a collected heap so one repetition's garbage
	// is not collected on the next one's clock.
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
	m.q0 = net.QueryCount()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() measured {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return measured{wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m.m0.Mallocs, allocBytes: m1.TotalAlloc - m.m0.TotalAlloc,
		queries: m.net.QueryCount() - m.q0}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// repResult is one repetition: a freshly built campaign, run once.
type repResult struct {
	setup time.Duration
	measured
	ops, attempted, failed int64
	// expectedErrs counts scan errors the generated world dictates (a
	// domain inside a transient NS-loss episode must SERVFAIL); they are
	// correct outputs, not failures.
	expectedErrs int64
	hitRatio     float64 // fleet cache hits / frontend serves (0 without a fleet)
	digest       string
}

// runRep builds the shape's campaign from nothing and runs it once under
// the meter, then checks a sample of live answers.
func runRep(sh shape, seed int64, workers int) (repResult, error) {
	var r repResult
	// Collect the previous repetition's campaign before building the next,
	// so the two never sit in the heap together and peak RSS is one
	// campaign's, not a race between the allocator and the collector.
	runtime.GC()
	t0 := time.Now()
	c, err := sh.newCampaign(sh.days, workers, true)
	if err != nil {
		return r, err
	}
	switch sh.kind {
	case kindDaily, kindHourly:
		r.setup = time.Since(t0)
		_, err = runSchedule(sh, c, sh.days, &r)
	case kindServe:
		c.World.Clock.Set(serveAt)
		names := servedNames(c.World, c.World.Tranco.ListFor(serveAt), serveAt)
		eng, eerr := workload.New(sh.engineConfig(seed, names, sh.queries), c.World.Clock, c.Fleet.Client)
		if eerr != nil {
			return r, eerr
		}
		r.setup = time.Since(t0)
		m := startMeter(c.World.Net)
		sum := eng.Run()
		r.measured = m.stop()
		total := c.Fleet.TotalStats()
		r.ops, r.attempted = int64(sum.Queries), int64(sum.Queries)
		r.failed = int64(sum.Errors + c.Fleet.Client.ServFails())
		r.hitRatio = total.HitRate()
		r.digest = fmt.Sprintf("%016x served=%d hits=%d upstream=%d", sum.Digest, total.Served, total.CacheHits, r.queries)
	}
	if err != nil {
		return r, err
	}
	if r.ops == 0 {
		return r, fmt.Errorf("%s: repetition produced no ops", sh.name)
	}
	return r, checkSampleAnswers(c, seed)
}

// runSchedule runs the campaign's own schedule under the meter — RunDaily
// over its configured window, or `days` days of hourly ECH scans — and
// fills in r's measurement, outcome and store digest. It returns when the
// timed region began.
func runSchedule(sh shape, c *core.Campaign, days int, r *repResult) (time.Time, error) {
	m := startMeter(c.World.Net)
	if sh.kind == kindHourly {
		c.RunHourlyECH(hourlyStart, days)
		r.measured = m.stop()
		r.ops = int64(len(c.Store.ECHObservations()))
		r.attempted, r.failed = hourlyOutcome(c.Store)
	} else {
		if err := c.RunDaily(); err != nil {
			return m.t0, err
		}
		r.measured = m.stop()
		r.ops, r.failed, r.expectedErrs = dailyOutcome(c)
		r.attempted = r.ops
	}
	var err error
	r.digest, err = storeDigest(c.Store)
	return m.t0, err
}

// storeDigest is the SHA-256 of the store's canonical JSON export.
func storeDigest(st *dataset.Store) (string, error) {
	h := sha256.New()
	if err := st.WriteJSON(h); err != nil {
		return "", fmt.Errorf("hashing store: %w", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// served reports whether the world has name servers for the name's apex at
// t; during a transient NS-loss episode it has none and SERVFAIL is the
// correct answer.
func served(w *providers.World, name string, at time.Time) bool {
	d, ok := w.Domain(dnswire.ApexOf(name))
	return ok && len(d.ProvidersAt(at)) > 0
}

// servedNames drops the names the world does not serve at t, so that no
// generated client query is bound to fail.
func servedNames(w *providers.World, list []string, at time.Time) []string {
	out := make([]string, 0, len(list))
	for _, n := range list {
		if served(w, n, at) {
			out = append(out, n)
		}
	}
	return out
}

// dailyOutcome counts domain-day scans (Σ Snapshot.Total) and splits the
// errored ones into those the world dictates and real failures.
func dailyOutcome(c *core.Campaign) (ops, failed, expected int64) {
	for _, kind := range []string{"apex", "www"} {
		for _, day := range c.Store.Days(kind) {
			snap, _ := c.Store.SnapshotFor(kind, day)
			ops += int64(snap.Total)
			scanAt := day.Add(12 * time.Hour)
			for _, o := range snap.Obs {
				switch {
				case o.Err == "":
				case served(c.World, o.Name, scanAt):
					failed++
				default:
					expected++
				}
			}
		}
	}
	return ops, failed, expected
}

// hourlyOutcome reads exchanges and failed exchanges off the stored
// hourly-ech telemetry: ECH observations carry no error field, and the
// per-hour fleet replicas are private to core, but each day's last series
// point is the merged total of that day's stub-client counters.
func hourlyOutcome(st *dataset.Store) (attempted, failed int64) {
	for _, series := range st.TelemetryAll() {
		if series.Scope != "hourly-ech" || len(series.Points) == 0 {
			continue
		}
		for _, v := range series.Points[len(series.Points)-1].Values {
			switch v.Key {
			case "client_exchanges_total":
				attempted += int64(v.Value)
			case "client_errors_total", "client_servfail_total":
				failed += int64(v.Value)
			}
		}
	}
	return attempted, failed
}

const sampleAnswers = 1000

// checkSampleAnswers queries a seeded sample of the campaign's names the
// way the workload does — through the fleet when there is one, else the
// primary recursor — and requires NOERROR with the question echoed.
func checkSampleAnswers(c *core.Campaign, seed int64) error {
	now := c.World.Clock.Now()
	names := servedNames(c.World, c.World.Tranco.ListFor(now), now)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sampleAnswers; i++ {
		name := dnswire.CanonicalName(names[rng.Intn(len(names))])
		q := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeHTTPS, true)
		var resp *dnswire.Message
		var err error
		if c.Fleet != nil {
			resp, err = c.Fleet.Client.Exchange(q)
		} else {
			resp, err = c.World.Net.QueryDNS(c.World.GoogleAddr, q)
		}
		if err != nil {
			return fmt.Errorf("sample answer %s: %w", name, err)
		}
		if resp.RCode != dnswire.RCodeNoError {
			return fmt.Errorf("sample answer %s: rcode %v, want NOERROR", name, resp.RCode)
		}
		if len(resp.Question) != 1 || resp.Question[0].Name != name || resp.Question[0].Type != dnswire.TypeHTTPS {
			return fmt.Errorf("sample answer %s: question not echoed: %v", name, resp.Question)
		}
	}
	return nil
}
