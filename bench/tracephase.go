package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnswire"
)

// traceRun is the per-layer phase for one workload (-trace 1): the traced
// rebuild of the workload's shape, the layer probes over its world, and —
// for the pipelined fleet campaigns — the 1-worker / P-worker pair.
type traceRun struct {
	sh      shape
	seed    int64
	workers int           // P
	box     time.Duration // time box of one probe
	outDir  string
	log     io.Writer
	out     map[string]float64
}

// probeNames caps the name list the probes cycle through.
const probeNames = 3000

// pct is 100·a/b.
func pct(a, b float64) float64 { return 100 * a / b }

// run executes the phase and returns the ops the traced rebuild performed.
func (t *traceRun) run() (int64, error) {
	sh := t.sh
	c, err := sh.newCampaign(max(sh.traceDays, 1), 1, true)
	if err != nil {
		return 0, err
	}
	var domains []string
	if sh.kind == kindHourly {
		domains = echDomains(c, hourlyStart)
	}

	// The same shape on one goroutine: a warm-up, then untraced and traced
	// runs in alternation, twice. The overhead compares the faster of each
	// kind; the span metrics come from the last traced run.
	if _, err := runRebuilt(sh, c, t.seed, domains, nil); err != nil {
		return 0, err
	}
	var plain, traced rebuilt
	var tr *tracer
	for i := 0; i < 2; i++ {
		p, err := runRebuilt(sh, c, t.seed, domains, nil)
		if err != nil {
			return 0, err
		}
		tr = newTracer()
		x, err := runRebuilt(sh, c, t.seed, domains, tr)
		if err != nil {
			return 0, err
		}
		if p.digest != x.digest {
			return 0, fmt.Errorf("%s: traced run's output %s differs from the untraced run's %s", sh.name, x.digest, p.digest)
		}
		if i > 0 {
			p.wall, x.wall = min(p.wall, plain.wall), min(x.wall, traced.wall)
		}
		plain, traced = p, x
	}
	fmt.Fprintf(t.log, "# rebuilt %s: %d ops, untraced %.3fs, traced %.3fs, %d spans, digest %s\n",
		sh.name, traced.ops, plain.wall.Seconds(), traced.wall.Seconds(), len(tr.spans), traced.digest)
	t.spanMetrics(tr, plain, traced)
	path, err := tr.write(t.outDir, sh.name, map[string]any{"seed": t.seed, "world": worldSeed, "ops": traced.ops})
	if err != nil {
		return 0, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(t.log, "# wrote %s\n", path)

	at := serveAt
	switch sh.kind {
	case kindDaily:
		at = dailyStart.Add(12 * time.Hour)
	case kindHourly:
		at = hourlyStart
	}
	// The probes warm every name before timing; the head of the list is
	// enough of serve-miss's 20 000.
	var names []string
	for _, n := range servedNames(c.World, c.World.Tranco.ListFor(at), at) {
		if len(names) == probeNames {
			break
		}
		names = append(names, dnswire.CanonicalName(n))
	}
	p := &prober{w: c.World, names: names, at: at, box: t.box, out: t.out}
	p.resolverAndDNSSEC()
	p.authoritatives()
	p.wire()
	p.transportLayer()
	if err := p.buildWorld(); err != nil {
		return 0, err
	}
	if sh.kind == kindServe {
		if err := p.engine(sh, t.seed); err != nil {
			return 0, err
		}
	} else if err := p.store(traced.store); err != nil {
		return 0, err
	}

	if sh.kind != kindServe {
		if err := t.coreReference(traced.store); err != nil {
			return 0, err
		}
	}
	return traced.ops, nil
}

// spanMetrics turns the span tree into self-time shares, boundary counts
// and per-call latencies.
func (t *traceRun) spanMetrics(tr *tracer, plain, traced rebuilt) {
	root := float64(tr.spans[0].End - tr.spans[0].Start)
	self := selfTimes(tr.spans)
	for l := layer(0); l < numLayers; l++ {
		t.out[l.String()+".self_pct"] = pct(float64(self[l]), root)
	}
	t.out["bench.trace_overhead_pct"] = pct(float64(traced.wall-plain.wall), float64(plain.wall))
	t.out["bench.trace_spans"] = float64(len(tr.spans))

	if x := tr.durations(layerResolver); len(x) > 0 {
		t.out["resolver.handle_us"] = median(x) / 1e3
		t.out["resolver.upstream_per_handle"] = float64(tr.countUnder(layerProviders, layerResolver)) / float64(len(x))
	}
	if x := tr.durations(layerTransport); len(x) > 0 {
		t.out["transport.exchange_p50_us"] = median(x) / 1e3
		// A p99 with fewer than ten exchanges beyond it is one outlier's
		// value: it reads 0 until the sample supports it.
		if highestPercentile(len(x)) >= 99 {
			t.out["transport.exchange_p99_us"] = percentile(x, 99) / 1e3
		}
	}
	if st := traced.strategy; st.Exchanges > 0 {
		t.out["transport.cache_hit_ratio"] = traced.serving.HitRate()
		t.out["transport.attempts_per_exchange"] = float64(st.Attempts) / float64(st.Exchanges)
		t.out["transport.wasted_upstream_ratio"] = st.WasteRate()
	}
	switch t.sh.kind {
	case kindServe:
		t.out["workload.stub_hit_ratio"] = float64(traced.sum.StubHits) / float64(traced.sum.Queries)
	default:
		// Domain scans are the exchange-opening scanner spans; the NS and
		// probe passes are scanner spans outside any exchange.
		var scans []float64
		for _, s := range tr.spans {
			if s.Layer == layerScanner && s.Exchange >= 0 {
				scans = append(scans, float64(s.End-s.Start))
			}
		}
		stub := layerResolver // direct: the stub query lands on the recursor
		if t.sh.fleet {
			stub = layerTransport
		}
		t.out["scanner.scan_domain_us"] = median(scans) / 1e3
		t.out["scanner.queries_per_domain"] = float64(tr.countUnder(stub, layerScanner)) / float64(len(scans))
		units := float64(t.sh.traceDays)
		if t.sh.kind == kindHourly {
			units = float64(t.sh.traceHours) / 24
		}
		t.out["dataset.commit_ms_per_day"] = float64(self[layerDataset]) / 1e6 / units
		t.out["analysis.report_ms"] = float64(self[layerAnalysis]) / 1e6
	}
}

// stampWriter timestamps each line core writes to CampaignConfig.Progress
// (one per committed day).
type stampWriter struct{ at []time.Time }

func (s *stampWriter) Write(b []byte) (int, error) {
	s.at = append(s.at, time.Now())
	return len(b), nil
}

// coreRun is the shape run through core itself — `days` scan days (or days
// of hourly scans) at a given worker count.
type coreRun struct {
	repResult
	store    *dataset.Store
	dayWalls []float64 // ms between consecutive day commits
}

func (t *traceRun) runCore(days, workers int, obsOn bool) (coreRun, error) {
	var r coreRun
	c, err := t.sh.newCampaign(days, workers, obsOn)
	if err != nil {
		return r, err
	}
	stamps := &stampWriter{}
	c.Cfg.Progress = stamps
	prev, err := runSchedule(t.sh, c, days, &r.repResult)
	r.store = c.Store
	for _, at := range stamps.at {
		r.dayWalls = append(r.dayWalls, float64(at.Sub(prev))/1e6)
		prev = at
	}
	return r, err
}

// coreReference runs core on the traced shape and checks the rebuild
// against it; for the pipelined fleet campaigns it is also the 1-worker /
// P-worker pair (digests must agree, the wall ratio is the speedup) and,
// for daily-fleet, the telemetry-on / telemetry-off CPU comparison.
func (t *traceRun) coreReference(rebuiltStore *dataset.Store) error {
	sh := t.sh
	days := max(sh.pairDays, sh.traceDays)
	if sh.kind == kindHourly {
		days = sh.pairDays
	}
	serial, err := t.runCore(days, 1, true)
	if err != nil {
		return err
	}
	if err := sameRecords(sh, rebuiltStore, serial.store); err != nil {
		return err
	}
	if sh.kind == kindDaily {
		t.out["core.day_wall_ms_p50"] = median(serial.dayWalls)
		_, t.out["core.day_wall_ms_max"] = minMax(serial.dayWalls)
	}
	if sh.pairDays == 0 {
		return nil
	}
	piped, err := t.runCore(days, t.workers, true)
	if err != nil {
		return err
	}
	if piped.digest != serial.digest {
		return fmt.Errorf("%s: store at %d workers %s differs from the 1-worker store %s", sh.name, t.workers, piped.digest, serial.digest)
	}
	speedup := float64(serial.wall) / float64(piped.wall)
	fmt.Fprintf(t.log, "# pipeline pair over %d days: 1 worker %.3fs, %d workers %.3fs, digest %s\n",
		days, serial.wall.Seconds(), t.workers, piped.wall.Seconds(), serial.digest)
	if sh.kind == kindHourly {
		t.out["core.hour_pipeline_speedup"] = speedup
		return nil
	}
	t.out["core.day_pipeline_speedup"] = speedup

	// Telemetry series + anomaly tier on vs off, CPU per op, the better
	// of two runs each (the pair's P-worker run is one of the "on" runs).
	cpuPerOp := func(r coreRun) float64 { return float64(r.cpu) / float64(r.ops) }
	on, off := cpuPerOp(piped), math.Inf(1)
	for _, obsOn := range []bool{false, true, false} {
		r, err := t.runCore(days, t.workers, obsOn)
		if err != nil {
			return err
		}
		if obsOn {
			on = min(on, cpuPerOp(r))
		} else {
			off = min(off, cpuPerOp(r))
		}
	}
	t.out["obs.overhead_cpu_pct"] = pct(on-off, off)
	return nil
}

// sameRecords checks that what the rebuilt pipeline stored equals what
// core stored for the same days (snapshots) or hours (ECH observations).
func sameRecords(sh shape, rebuilt, ref *dataset.Store) error {
	if sh.kind == kindHourly {
		got, want := rebuilt.ECHObservations(), ref.ECHObservations()
		if len(want) < len(got) {
			return fmt.Errorf("%s: rebuild stored %d ECH observations, core only %d", sh.name, len(got), len(want))
		}
		return sameJSON(sh.name+": rebuilt hours' ECH observations", got, want[:len(got)])
	}
	for _, kind := range []string{"apex", "www"} {
		for _, day := range rebuilt.Days(kind) {
			got, _ := rebuilt.SnapshotFor(kind, day)
			want, ok := ref.SnapshotFor(kind, day)
			if !ok {
				return fmt.Errorf("%s: core has no %s snapshot for %s", sh.name, kind, day.Format(time.DateOnly))
			}
			what := fmt.Sprintf("%s: rebuilt %s snapshot for %s", sh.name, kind, day.Format(time.DateOnly))
			if err := sameJSON(what, got, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameJSON compares two records by their JSON encoding.
func sameJSON(what string, got, want any) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s differs from core's", what)
	}
	return nil
}
