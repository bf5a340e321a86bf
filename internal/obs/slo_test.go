package obs

import (
	"testing"
	"time"
)

// sloRegistry builds a registry shaped like a transport fleet's
// winner-side surface.
func sloRegistry(clock Clock) (*Registry, *Counter, *Counter, *Counter, *Histogram) {
	r := NewRegistry(clock)
	ex := counter(r, "client_exchanges_total")
	errs := counter(r, "client_errors_total")
	stale := counter(r, "client_stale_answers_total")
	counter(r, "client_servfail_total")
	h := histogram(r, "exchange_latency_seconds")
	return r, ex, errs, stale, h
}

func TestSLOEval(t *testing.T) {
	slo := SLO{Availability: 0.99, LatencyP99: 20 * time.Millisecond, StaleRatio: 0.1}
	r, ex, errs, stale, h := sloRegistry(nil)
	ex.Add(100)
	errs.Add(2) // availability 0.98 < 0.99
	stale.Add(5)
	for i := 0; i < 98; i++ {
		h.Observe(5 * time.Millisecond)
	}
	h.Observe(80 * time.Millisecond) // rank 99 of 100 lands here:
	h.Observe(80 * time.Millisecond) // p99 -> 100ms bucket bound > 20ms

	rep := slo.Eval(SLOStatsFrom(r.Snapshot()))
	if rep.AvailabilityOK {
		t.Fatalf("availability 0.98 passed a 0.99 objective: %+v", rep)
	}
	if rep.Availability != 0.98 {
		t.Fatalf("availability = %v, want 0.98", rep.Availability)
	}
	// Burn: (1-0.98)/(1-0.99) = 2× budget.
	if rep.AvailabilityBurn < 1.99 || rep.AvailabilityBurn > 2.01 {
		t.Fatalf("availability burn = %v, want ≈2", rep.AvailabilityBurn)
	}
	if rep.P99OK {
		t.Fatalf("p99 %v passed a 20ms objective", rep.P99)
	}
	if !rep.StaleOK || rep.StaleRatio != 0.05 {
		t.Fatalf("stale ratio = %v (ok=%v), want 0.05 passing", rep.StaleRatio, rep.StaleOK)
	}
	if rep.StaleBurn != 0.5 {
		t.Fatalf("stale burn = %v, want 0.5", rep.StaleBurn)
	}
	if rep.Violations != 2 {
		t.Fatalf("violations = %d, want 2", rep.Violations)
	}
}

func TestSLOEvalIdleAndDisabled(t *testing.T) {
	var none SLO
	rep := none.Eval(SLOStats{Exchanges: 10, Errors: 10})
	if rep.Violations != 0 {
		t.Fatalf("disabled objectives violated: %+v", rep)
	}
	// Idle window: availability 1, nothing burns.
	rep = DefaultSLO().Eval(SLOStats{})
	if rep.Violations != 0 || rep.Availability != 1 {
		t.Fatalf("idle window = %+v, want clean", rep)
	}
	// Stable snapshots carry no latency histogram: the p99 objective is
	// unevaluable, never a violation.
	rep = SLO{LatencyP99: time.Nanosecond}.Eval(SLOStats{Exchanges: 5, P99: time.Hour})
	if rep.Violations != 0 {
		t.Fatal("unevaluable p99 counted as a violation")
	}
}

// TestBurnMultiWindow drives a clean hour then a bad five minutes: the
// short window sees the full burn while the long window dilutes it — the
// multi-window shape that separates a blip from a budget fire.
func TestBurnMultiWindow(t *testing.T) {
	clock := testClock()
	r, ex, errs, _, h := sloRegistry(clock)
	slo := SLO{Availability: 0.9, LatencyP99: time.Second}
	sampler := NewSampler(r, clock, false)

	observe := func(n, bad int) {
		for i := 0; i < n; i++ {
			h.Observe(5 * time.Millisecond)
		}
		ex.Add(uint64(n))
		errs.Add(uint64(bad))
	}
	// A clean hour in 5-minute ticks.
	for i := 0; i < 12; i++ {
		observe(100, 0)
		sampler.Force("tick")
		clock.Advance(5 * time.Minute)
	}
	// Five bad minutes: half the exchanges fail.
	observe(100, 50)
	sampler.Force("tick")

	burns := Burn(slo, nil, sampler.Points(), 5*time.Minute, time.Hour)
	if len(burns) != 2 {
		t.Fatalf("burn windows = %d, want 2", len(burns))
	}
	short, long := burns[0], burns[1]
	if short.Window != 5*time.Minute || long.Window != time.Hour {
		t.Fatalf("window order = %v, %v", short.Window, long.Window)
	}
	if short.Report.Availability != 0.5 {
		t.Fatalf("short-window availability = %v, want 0.5", short.Report.Availability)
	}
	// 0.5 availability against a 0.1 budget: burn 5×.
	if short.Report.AvailabilityBurn < 4.99 || short.Report.AvailabilityBurn > 5.01 {
		t.Fatalf("short-window burn = %v, want ≈5", short.Report.AvailabilityBurn)
	}
	if !short.Report.Stats.P99Known {
		t.Fatalf("short window lost the latency histogram: %+v", short.Report.Stats)
	}
	if long.Report.Availability >= 0.97 || long.Report.Availability <= 0.5 {
		t.Fatalf("long-window availability = %v, want diluted between 0.5 and 0.97", long.Report.Availability)
	}
	if long.Report.AvailabilityBurn >= short.Report.AvailabilityBurn {
		t.Fatalf("long burn %v not below short burn %v", long.Report.AvailabilityBurn, short.Report.AvailabilityBurn)
	}
}

// TestBurnCumulativeFallback pins the windows no sample reaches back
// to: they judge the cumulative stats of the latest sample, whether
// that is the base alone or a later point.
func TestBurnCumulativeFallback(t *testing.T) {
	clock := testClock()
	r, ex, _, _, _ := sloRegistry(clock)
	if Burn(DefaultSLO(), nil, nil) != nil {
		t.Fatal("burn before any sample")
	}
	ex.Add(10)
	base := r.Snapshot()
	clock.Advance(time.Minute)
	ex.Add(5)
	point := Point{At: clock.Now(), Snap: r.Snapshot()}
	for name, tc := range map[string]struct {
		base   *Snapshot
		points []Point
		want   uint64
	}{
		"base-only":  {base, nil, 10},
		"point-only": {nil, []Point{point}, 15},
	} {
		burns := Burn(DefaultSLO(), tc.base, tc.points) // default windows
		if len(burns) != len(defaultBurnWindows()) {
			t.Fatalf("%s: %d windows, want the default %d", name, len(burns), len(defaultBurnWindows()))
		}
		// A run shorter than every window judges the cumulative stats.
		for _, b := range burns {
			if b.Report.Stats.Exchanges != tc.want {
				t.Fatalf("%s: window %v stats = %+v, want cumulative %d exchanges", name, b.Window, b.Report.Stats, tc.want)
			}
		}
	}
	// With the base a minute back, the 5-minute window still reaches
	// before it and stays cumulative; a window shorter than that minute
	// subtracts the base.
	burns := Burn(DefaultSLO(), base, []Point{point}, 30*time.Second, 5*time.Minute)
	if got := burns[0].Report.Stats.Exchanges; got != 5 {
		t.Errorf("30s window = %d exchanges, want the 5 past the base", got)
	}
	if got := burns[1].Report.Stats.Exchanges; got != 15 {
		t.Errorf("5m window = %d exchanges, want cumulative 15", got)
	}
}
