package obs

import (
	"sync"
	"time"
)

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

// BurnEngine evaluates an SLO over multiple trailing virtual-time
// windows — the multi-window burn-rate shape (a short window catches a
// fast burn, a long window keeps a slow burn honest). Feed it cumulative
// registry snapshots as virtual time advances; each Burn call subtracts
// the snapshot at the window's edge, so per-window stats are true
// deltas, latency histogram included.
type BurnEngine struct {
	clock   Clock
	slo     SLO
	windows []time.Duration

	mu      sync.Mutex
	samples []burnSample // time-ordered
}

type burnSample struct {
	at   time.Time
	snap *Snapshot
}

// DefaultBurnWindows is the demo window ladder, scaled to drills that
// span virtual minutes to hours.
func DefaultBurnWindows() []time.Duration {
	return []time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour}
}

// NewBurnEngine builds an engine judging slo over the given trailing
// windows (empty selects DefaultBurnWindows).
func NewBurnEngine(clock Clock, slo SLO, windows ...time.Duration) *BurnEngine {
	if len(windows) == 0 {
		windows = DefaultBurnWindows()
	}
	ws := append([]time.Duration(nil), windows...)
	return &BurnEngine{clock: clock, slo: slo, windows: ws}
}

// SLO returns the engine's objectives.
func (e *BurnEngine) SLO() SLO { return e.slo }

// Windows returns the trailing windows, in declaration order.
func (e *BurnEngine) Windows() []time.Duration {
	return append([]time.Duration(nil), e.windows...)
}

// Record appends the registry's cumulative snapshot at the clock's
// current virtual time. Samples older than the longest window (plus one
// baseline sample before its edge) are trimmed.
func (e *BurnEngine) Record(snap *Snapshot) {
	if e == nil || snap == nil {
		return
	}
	var at time.Time
	if e.clock != nil {
		at = e.clock.Now()
	} else {
		at = snap.At
	}
	longest := e.windows[0]
	for _, w := range e.windows[1:] {
		if w > longest {
			longest = w
		}
	}
	e.mu.Lock()
	e.samples = append(e.samples, burnSample{at: at, snap: snap})
	edge := at.Add(-longest)
	cut := 0
	for cut+1 < len(e.samples) && !e.samples[cut+1].at.After(edge) {
		cut++
	}
	e.samples = e.samples[cut:]
	e.mu.Unlock()
}

// Burn judges each trailing window ending at the latest sample. The
// window's baseline is the newest sample at or before its edge; a
// window older than the whole run has no baseline and judges the
// cumulative stats — correct for drills shorter than the window.
// Returns nil before any sample.
func (e *BurnEngine) Burn() []WindowBurn {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	samples := append([]burnSample(nil), e.samples...)
	e.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	latest := samples[len(samples)-1]
	out := make([]WindowBurn, 0, len(e.windows))
	for _, w := range e.windows {
		edge := latest.at.Add(-w)
		var base *Snapshot
		for i := len(samples) - 1; i >= 0; i-- {
			if !samples[i].at.After(edge) {
				base = samples[i].snap
				break
			}
		}
		delta := latest.snap
		if base != nil {
			delta = latest.snap.Sub(base)
		}
		out = append(out, WindowBurn{Window: w, Report: e.slo.Eval(SLOStatsFrom(delta))})
	}
	return out
}
