package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Model selects the arrival law driving each simulated client.
type Model uint8

const (
	// ModelClosed is a closed-loop client: it issues a query, consumes
	// the answer, thinks for an exponential pause, and repeats. Load
	// self-limits — a slow serving layer slows its own offered load.
	ModelClosed Model = iota
	// ModelOpen is an open-loop client: arrivals follow a Poisson
	// process regardless of completions, the law that models a large
	// independent population and can overload the serving layer.
	ModelOpen
)

// String renders the model in ParseModel form.
func (m Model) String() string {
	if m == ModelOpen {
		return "open"
	}
	return "closed"
}

// ParseModel parses "closed" or "open" (the -loadmodel flag values).
func ParseModel(s string) (Model, error) {
	switch s {
	case "closed", "":
		return ModelClosed, nil
	case "open":
		return ModelOpen, nil
	}
	return ModelClosed, fmt.Errorf("workload: unknown model %q (want closed or open)", s)
}

// Diurnal shapes the arrival rate over the day: the instantaneous rate
// is scaled by 1 + Amplitude·cos(2π·(tod−Peak)/24h), so load peaks at
// Peak (a time-of-day offset) and bottoms out twelve hours away.
type Diurnal struct {
	// Amplitude in [0, 0.95]; 0 disables the curve.
	Amplitude float64
	// Peak is the time-of-day of maximum load (e.g. 20h for an evening
	// peak).
	Peak time.Duration
}

// FlashCrowd is a scheduled load spike: for Duration starting At (an
// offset from engine start) every client's arrival rate is multiplied
// by Multiplier, and — when Domain is set — Fraction of the spike's
// domain draws are pinned to that one name, the thundering-herd shape
// that hammers a single cache entry.
type FlashCrowd struct {
	At         time.Duration
	Duration   time.Duration
	Multiplier float64
	// Domain must be a member of Config.Domains when set.
	Domain   string
	Fraction float64
}

// Config parameterises a workload engine run. The engine is a pure
// function of (Config, clock start, target): every knob feeds the
// deterministic event computation, none reads ambient state.
type Config struct {
	// Clients is the simulated stub population size.
	Clients int
	// Model selects closed-loop think-time or open-loop Poisson arrivals.
	Model Model
	// Seed drives every client's RNG stream.
	Seed int64
	// Domains is the popularity-ranked query universe (rank 0 the most
	// popular — a Tranco list slice in campaign use).
	Domains []string
	// ZipfS is the popularity exponent; 0 selects 1.0, the classic
	// DNS-trace value. Negative is rejected.
	ZipfS float64
	// OpenRate is the open-loop per-client mean arrival rate in
	// queries/second; 0 selects 0.1. Negative is rejected.
	OpenRate float64
	// Think is the closed-loop mean think time; 0 selects 10s. Negative
	// is rejected.
	Think time.Duration
	// Duration bounds the simulated horizon. Zero is allowed only with
	// MaxQueries set.
	Duration time.Duration
	// MaxQueries, when positive, stops the run after that many queries —
	// the budget knob benchmark smoke runs use.
	MaxQueries int
	// StubTTL is each client's stub-cache entry lifetime. It is a fixed
	// configured value rather than the answer's TTL: answer TTLs depend
	// on fleet-cache aging, whose LRU residency is schedule-dependent
	// under concurrent scanner stages, and the engine's event stream
	// must stay a pure function of (seed, clock, config). 0 selects 60s;
	// negative is rejected.
	StubTTL time.Duration
	// Mix deals per-client protocol preferences across the population
	// (the dnscrypt-proxy-style per-stub preference). The zero Mix
	// leaves every client protocol-agnostic.
	Mix transport.Mix
	// Diurnal shapes the rate over the day; Crowds schedules spikes.
	Diurnal Diurnal
	Crowds  []FlashCrowd
}

// withDefaults fills the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.0
	}
	if cfg.OpenRate == 0 {
		cfg.OpenRate = 0.1
	}
	if cfg.Think == 0 {
		cfg.Think = 10 * time.Second
	}
	if cfg.StubTTL == 0 {
		cfg.StubTTL = 60 * time.Second
	}
	return cfg
}

// stubSlots is each client's direct-mapped stub-cache size.
const stubSlots = 4

// Exchanger is the serving-layer hook the engine drives — satisfied by
// *transport.Client and by any test double.
type Exchanger interface {
	Exchange(q *dnswire.Message) (*dnswire.Message, error)
}

// preferring is the optional protocol-preference fast path
// (*transport.Client implements it); targets without it serve
// protocol-agnostic clients only.
type preferring interface {
	ExchangePreferring(q *dnswire.Message, pref transport.Protocol) (*dnswire.Message, error)
}

// answerReuser is the optional answer-recycling toggle
// (*transport.Client implements it). The engine is the target's sole
// driver for the duration of Run and discards every answer before the
// next exchange, which is exactly the contract ReuseAnswers needs, so
// Run flips it on for the run and restores it after.
type answerReuser interface{ SetReuseAnswers(on bool) }

// chargeQuantum is the amortised clock-charging granularity: the
// engine's virtual clock moves in these steps instead of per event, so
// a million clients share O(horizon/quantum) clock mutations rather
// than paying one mutex-guarded Set each per query.
const chargeQuantum = 100 * time.Millisecond

// Summary is one engine run's totals: of its Queries, StubHits were
// answered from the clients' stub caches, the rest went to the target,
// and Errors of those failed.
type Summary struct {
	Queries  uint64
	StubHits uint64
	Errors   uint64
	// Digest fingerprints the full event stream — every (client, due,
	// rank, outcome) tuple in pop order — so tests can assert two runs
	// replayed identically without storing millions of events.
	Digest uint64
}

// Engine drives Config.Clients simulated stubs against a serving-layer
// target on the virtual clock. See the package documentation for the
// client model and the determinism contract.
type Engine struct {
	cfg    Config
	clock  *simnet.Clock
	target Exchanger
	prefTx preferring

	zipf  *zipfSampler
	names []string // canonical FQDN per rank, built once
	mean  float64  // mean gap between one client's arrivals, seconds

	// Per-client direct-mapped stub caches in two flat arrays
	// (client*stubSlots + rank%stubSlots): the domain rank cached in the
	// slot and its expiry in unix nanoseconds.
	cacheDom []uint32
	cacheExp []int64

	cal calendar         // per-client records and the arrival schedule
	q   *dnswire.Message // reused query message (ID/QNAME patched per event)

	start     int64 // unix nanos at Run start
	end       int64
	charged   int64   // clock high-water mark already Set
	crowdRank []int32 // resolved Domains rank per crowd (-1: none)

	queries, stubHits, errors uint64
	digest                    uint64
}

// fnvOffset/fnvPrime are the FNV-1a 64 parameters for the event digest.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// New validates cfg and builds an engine over clock and target. The
// alias table, client RNG streams, protocol preferences and the calendar
// are all built here, so Run allocates a constant amount.
func New(cfg Config, clock *simnet.Clock, target Exchanger) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("workload: Clients must be positive")
	}
	if len(cfg.Domains) == 0 {
		return nil, fmt.Errorf("workload: Domains must be non-empty")
	}
	if cfg.Duration <= 0 && cfg.MaxQueries <= 0 {
		return nil, fmt.Errorf("workload: need Duration or MaxQueries")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"ZipfS", cfg.ZipfS}, {"OpenRate", cfg.OpenRate}, {"Think", float64(cfg.Think)},
		{"StubTTL", float64(cfg.StubTTL)}} {
		if f.v < 0 {
			return nil, fmt.Errorf("workload: %s must not be negative", f.name)
		}
	}
	if cfg.Diurnal.Amplitude < 0 || cfg.Diurnal.Amplitude > 0.95 {
		return nil, fmt.Errorf("workload: Diurnal.Amplitude %v outside [0, 0.95]", cfg.Diurnal.Amplitude)
	}
	if clock == nil {
		return nil, fmt.Errorf("workload: nil clock")
	}
	if target == nil {
		return nil, fmt.Errorf("workload: nil target")
	}

	mean := float64(cfg.Think) / float64(time.Second)
	if cfg.Model == ModelOpen {
		mean = 1 / cfg.OpenRate
	}
	e := &Engine{
		cfg: cfg, clock: clock, target: target,
		zipf:     newZipfSampler(len(cfg.Domains), cfg.ZipfS),
		names:    make([]string, len(cfg.Domains)),
		mean:     mean,
		cacheDom: make([]uint32, cfg.Clients*stubSlots),
		cacheExp: make([]int64, cfg.Clients*stubSlots),
		cal:      newCalendar(cfg.Clients, mean*float64(time.Second)),
		digest:   fnvOffset,
	}
	rankOf := make(map[string]uint32, len(cfg.Domains))
	for i, d := range cfg.Domains {
		e.names[i] = dnswire.CanonicalName(d)
		rankOf[e.names[i]] = uint32(i)
	}
	e.crowdRank = make([]int32, len(cfg.Crowds))
	for i, fc := range cfg.Crowds {
		e.crowdRank[i] = -1
		if fc.Multiplier <= 0 {
			return nil, fmt.Errorf("workload: crowd %d Multiplier must be positive", i)
		}
		if fc.At < 0 || fc.Duration < 0 {
			return nil, fmt.Errorf("workload: crowd %d At %v and Duration %v must not be negative", i, fc.At, fc.Duration)
		}
		if fc.Fraction < 0 || fc.Fraction > 1 {
			return nil, fmt.Errorf("workload: crowd %d Fraction %v outside [0, 1]", i, fc.Fraction)
		}
		if fc.Domain != "" {
			rank, ok := rankOf[dnswire.CanonicalName(fc.Domain)]
			if !ok {
				return nil, fmt.Errorf("workload: crowd %d domain %q not in Domains", i, fc.Domain)
			}
			e.crowdRank[i] = int32(rank)
		}
	}
	for i := range e.cacheDom {
		e.cacheDom[i] = emptySlot
	}
	for i := range e.cal.clients {
		e.cal.clients[i].rng = newRNG(cfg.Seed, uint32(i))
	}
	if cfg.Mix != (transport.Mix{}) {
		pt, ok := target.(preferring)
		if !ok {
			return nil, fmt.Errorf("workload: Mix set but target has no ExchangePreferring")
		}
		e.prefTx = pt
		cycle := cfg.Mix.Assign(min(cfg.Clients, cfg.Mix.Period()))
		for i := range e.cal.clients {
			e.cal.clients[i].pref = int8(cycle[i%len(cycle)])
		}
	}
	e.q = dnswire.NewQuery(0, e.names[0], dnswire.TypeHTTPS, false)
	return e, nil
}

// emptySlot marks an unused stub-cache slot (no rank reaches 2^32−1).
const emptySlot = ^uint32(0)

// rateFactor is the instantaneous arrival-rate multiplier at t (unix
// nanos): the diurnal curve times any active flash crowd.
func (e *Engine) rateFactor(t int64) float64 {
	f := 1.0
	if a := e.cfg.Diurnal.Amplitude; a > 0 {
		tod := time.Unix(0, t).UTC()
		day := float64(tod.Sub(tod.Truncate(24*time.Hour))) - float64(e.cfg.Diurnal.Peak)
		f = 1 + a*math.Cos(2*math.Pi*day/float64(24*time.Hour))
	}
	for _, fc := range e.cfg.Crowds {
		at := e.start + int64(fc.At)
		if t >= at && t < at+int64(fc.Duration) {
			f *= fc.Multiplier
		}
	}
	return f
}

// crowdPin returns the pinned domain rank when t falls inside a crowd
// that hammers one domain and the client's draw lands in its Fraction.
func (e *Engine) crowdPin(r *rng, t int64) (uint32, bool) {
	for i, fc := range e.cfg.Crowds {
		if e.crowdRank[i] < 0 {
			continue
		}
		at := e.start + int64(fc.At)
		if t >= at && t < at+int64(fc.Duration) && r.float64() <= fc.Fraction {
			return uint32(e.crowdRank[i]), true
		}
	}
	return 0, false
}

// gap draws the client's next inter-arrival span from due, scaled by
// the rate factor at due (a piecewise-thinning approximation of the
// non-homogeneous Poisson process — exact when the factor is constant
// over the gap, which the statistical tests verify at the configured
// tolerances).
func (e *Engine) gap(r *rng, due int64) int64 {
	d := r.exp(e.mean / e.rateFactor(due))
	if d > 1e9 { // degenerate draw; cap far past any horizon
		d = 1e9
	}
	ns := int64(d * float64(time.Second))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// setClock advances the shared virtual clock to t, monotonically: a
// live-clock target charging exchange latency may already have pushed
// the clock past t, and the clock must never step backwards under a
// cache that orders entries by time.
func (e *Engine) setClock(t int64) {
	if t <= e.charged {
		return
	}
	e.charged = t
	at := time.Unix(0, t).UTC()
	if at.After(e.clock.Now()) {
		e.clock.Set(at)
	}
}

// digestEvent folds one processed event into the stream fingerprint.
func (e *Engine) digestEvent(client uint32, due int64, rank uint32, outcome byte) {
	h := e.digest
	for i := 0; i < 32; i += 8 {
		h = (h ^ uint64(byte(client>>i))) * fnvPrime
	}
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(uint64(due)>>i))) * fnvPrime
	}
	for i := 0; i < 32; i += 8 {
		h = (h ^ uint64(byte(rank>>i))) * fnvPrime
	}
	e.digest = (h ^ uint64(outcome)) * fnvPrime
}

// Event outcomes folded into the digest.
const (
	outcomeStubHit byte = iota
	outcomeAnswered
	outcomeError
)

// process serves one arrival: draw the domain, probe the client's stub
// cache, and on a miss exchange through the serving layer and fill the
// slot. Returns the outcome for the digest.
func (e *Engine) process(ev event) byte {
	c := &e.cal.clients[ev.client]
	rank, pinned := e.crowdPin(&c.rng, ev.due)
	if !pinned {
		rank = e.zipf.draw(&c.rng)
	}
	e.queries++
	slot := int(ev.client)*stubSlots + int(rank)%stubSlots
	if e.cacheDom[slot] == rank && e.cacheExp[slot] >= ev.due {
		e.stubHits++
		e.digestEvent(ev.client, ev.due, rank, outcomeStubHit)
		return outcomeStubHit
	}
	// Amortised clock charge: the fleet sees time in chargeQuantum steps.
	e.setClock(ev.due - ev.due%int64(chargeQuantum))
	e.q.ID = uint16(e.queries)
	e.q.Question[0].Name = e.names[rank]
	var err error
	if e.prefTx != nil {
		_, err = e.prefTx.ExchangePreferring(e.q, transport.Protocol(c.pref))
	} else {
		_, err = e.target.Exchange(e.q)
	}
	outcome := outcomeAnswered
	if err != nil {
		e.errors++
		outcome = outcomeError
	} else {
		e.cacheDom[slot] = rank
		e.cacheExp[slot] = ev.due + int64(e.cfg.StubTTL)
	}
	e.digestEvent(ev.client, ev.due, rank, outcome)
	return outcome
}

// Run drives the population from the clock's current time until the
// configured horizon (or query budget) and returns the totals. It is
// single-goroutine by construction: determinism comes from the total
// event order, not from locking. Safe to call once per engine.
func (e *Engine) Run() Summary {
	e.start = e.clock.Now().UnixNano()
	e.charged = e.start
	if e.cfg.Duration > 0 {
		e.end = e.start + int64(e.cfg.Duration)
	} else {
		e.end = math.MaxInt64
	}
	// The engine is the target's sole driver until Run returns and never
	// reads an answer after the next exchange starts, so the client may
	// recycle answer messages between events.
	if ru, ok := e.target.(answerReuser); ok {
		ru.SetReuseAnswers(true)
		defer ru.SetReuseAnswers(false)
	}

	// Seed every client's first arrival.
	for i := range e.cal.clients {
		e.cal.Push(uint32(i), e.start+e.gap(&e.cal.clients[i].rng, e.start))
	}

	for {
		if e.cfg.MaxQueries > 0 && e.queries >= uint64(e.cfg.MaxQueries) {
			break
		}
		ev, ok := e.cal.Pop()
		if !ok || ev.due >= e.end {
			break
		}
		e.process(ev)
		e.cal.Push(ev.client, ev.due+e.gap(&e.cal.clients[ev.client].rng, ev.due))
	}

	if e.cfg.Duration > 0 {
		e.setClock(e.end)
	}
	return Summary{Queries: e.queries, StubHits: e.stubHits, Errors: e.errors, Digest: e.digest}
}
