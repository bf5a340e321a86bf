package obs

import "time"

// SLO declares the service objectives a serving fleet is judged
// against, all evaluated on the virtual clock. A zero field disables
// that objective.
type SLO struct {
	// Availability is the minimum answered fraction: exchanges that
	// neither errored nor returned SERVFAIL, over all exchanges.
	Availability float64
	// LatencyP99 is the maximum p99 virtual exchange latency.
	LatencyP99 time.Duration
	// StaleRatio is the maximum fraction of exchanges answered from
	// RFC 8767 stale cache.
	StaleRatio float64
}

// DefaultSLO is the demo objective set: three nines of availability,
// p99 within the synthetic latency band's tail, and at most 5% of
// answers served stale.
func DefaultSLO() SLO {
	return SLO{Availability: 0.999, LatencyP99: 100 * time.Millisecond, StaleRatio: 0.05}
}

// SLOStats are the winner-side quantities objectives are judged on,
// read from a registry snapshot (cumulative) or a drill delta
// (Snapshot.Sub). P99Known is false when the snapshot carries no
// latency histogram — the histogram is schedule-dependent, so stable
// snapshots omit it and the latency objective goes unevaluated there.
type SLOStats struct {
	Exchanges uint64
	Errors    uint64
	ServFails uint64
	Stale     uint64
	P99       time.Duration
	P99Known  bool
}

// SLOStatsFrom reads the transport client's winner-side counters out of
// a snapshot.
func SLOStatsFrom(snap *Snapshot) SLOStats {
	var s SLOStats
	s.Exchanges = uint64(snap.Value("client_exchanges_total"))
	s.Errors = uint64(snap.Value("client_errors_total"))
	s.ServFails = uint64(snap.Value("client_servfail_total"))
	s.Stale = uint64(snap.Value("client_stale_answers_total"))
	if m, ok := snap.Get("exchange_latency_seconds"); ok && m.Count > 0 {
		s.P99 = m.Quantile(0.99)
		s.P99Known = true
	}
	return s
}

// Availability is the answered fraction (1 when idle — an idle window
// has burned no budget).
func (s SLOStats) Availability() float64 {
	if s.Exchanges == 0 {
		return 1
	}
	bad := s.Errors + s.ServFails
	if bad > s.Exchanges {
		bad = s.Exchanges
	}
	return float64(s.Exchanges-bad) / float64(s.Exchanges)
}

// StaleRatio is the stale-served fraction (0 when idle).
func (s SLOStats) StaleRatio() float64 { return Ratio(s.Stale, s.Exchanges) }

// SLOReport judges one window's stats against the objectives. Burn
// rates follow the SRE convention: observed badness over the budget the
// objective allows, so 1.0 spends the budget exactly at the window's
// length and anything above burns faster.
type SLOReport struct {
	Stats SLOStats

	Availability     float64
	AvailabilityOK   bool
	AvailabilityBurn float64

	P99   time.Duration
	P99OK bool

	StaleRatio float64
	StaleOK    bool
	StaleBurn  float64

	// Violations counts objectives the window failed (disabled or
	// unevaluable objectives never count).
	Violations int
}

// Eval judges stats against the objectives. Disabled objectives pass;
// the latency objective passes when the stats carry no histogram
// (stable snapshots — see SLOStats.P99Known).
func (o SLO) Eval(stats SLOStats) SLOReport {
	r := SLOReport{
		Stats:          stats,
		Availability:   stats.Availability(),
		AvailabilityOK: true,
		P99:            stats.P99,
		P99OK:          true,
		StaleRatio:     stats.StaleRatio(),
		StaleOK:        true,
	}
	if o.Availability > 0 {
		if budget := 1 - o.Availability; budget > 0 {
			r.AvailabilityBurn = (1 - r.Availability) / budget
		}
		if r.Availability < o.Availability {
			r.AvailabilityOK = false
			r.Violations++
		}
	}
	if o.LatencyP99 > 0 && stats.P99Known && stats.P99 > o.LatencyP99 {
		r.P99OK = false
		r.Violations++
	}
	if o.StaleRatio > 0 {
		r.StaleBurn = r.StaleRatio / o.StaleRatio
		if r.StaleRatio > o.StaleRatio {
			r.StaleOK = false
			r.Violations++
		}
	}
	return r
}

// WindowBurn is one trailing window's judgement.
type WindowBurn struct {
	Window time.Duration
	Report SLOReport
}

// defaultBurnWindows is the demo window ladder, scaled to drills that
// span virtual minutes to hours.
func defaultBurnWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour}
}

// Burn evaluates slo over multiple trailing virtual-time windows — the
// multi-window burn-rate shape (a short window catches a fast burn, a
// long window keeps a slow burn honest). base is the cumulative snapshot
// the series starts from, stamped at its At; points are later cumulative
// samples in time order (a Sampler's Points). Each window ends at the
// latest sample and subtracts the newest sample at or before its edge,
// so per-window stats are true deltas, latency histogram included; a
// window older than the whole series has no such sample and judges the
// cumulative stats — correct for drills shorter than the window. Empty
// windows select defaultBurnWindows. Returns nil when there is no
// sample at all.
func Burn(slo SLO, base *Snapshot, points []Point, windows ...time.Duration) []WindowBurn {
	samples := make([]Point, 0, len(points)+1)
	if base != nil {
		samples = append(samples, Point{At: base.At, Snap: base})
	}
	samples = append(samples, points...)
	if len(samples) == 0 {
		return nil
	}
	if len(windows) == 0 {
		windows = defaultBurnWindows()
	}
	latest := samples[len(samples)-1]
	out := make([]WindowBurn, 0, len(windows))
	for _, w := range windows {
		edge := latest.At.Add(-w)
		delta := latest.Snap
		for i := len(samples) - 1; i >= 0; i-- {
			if !samples[i].At.After(edge) {
				delta = latest.Snap.Sub(samples[i].Snap)
				break
			}
		}
		out = append(out, WindowBurn{Window: w, Report: slo.Eval(SLOStatsFrom(delta))})
	}
	return out
}
