package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Model names the arrival law. ModelOpen, the zero value, is the only
// one: the type stays because the repo benchmark sets Config.Model by
// name.
type Model uint8

// ModelOpen is an open-loop client: arrivals follow a Poisson process
// regardless of completions, the law that models a large independent
// population and can overload the serving layer.
const ModelOpen Model = 0

// OpenRate is each client's mean arrival rate in queries per second.
const OpenRate = 0.1

// StubTTL is each client's stub-cache entry lifetime. It is fixed
// rather than the answer's TTL: answer TTLs depend on fleet-cache aging,
// whose LRU residency is schedule-dependent under concurrent scanner
// stages, and the engine's event stream must stay a pure function of
// (seed, clock, config).
const StubTTL = 60 * time.Second

// Config parameterises a workload engine run. The engine is a pure
// function of (Config, clock start, target): every knob feeds the
// deterministic event computation, none reads ambient state.
type Config struct {
	// Clients is the simulated stub population size.
	Clients int
	// Model is the arrival law; ModelOpen is the only one.
	Model Model
	// Seed drives every client's RNG stream.
	Seed int64
	// Domains is the popularity-ranked query universe (rank 0 the most
	// popular — a Tranco list slice in campaign use).
	Domains []string
	// ZipfS is the popularity exponent; 0 selects 1.0, the classic
	// DNS-trace value. Negative is rejected.
	ZipfS float64
	// Duration bounds the simulated horizon. Zero is allowed only with
	// MaxQueries set.
	Duration time.Duration
	// MaxQueries, when positive, stops the run after that many queries —
	// the budget knob benchmark smoke runs use.
	MaxQueries int
	// Mix deals per-client protocol preferences across the population
	// (the dnscrypt-proxy-style per-stub preference). The zero Mix
	// leaves every client protocol-agnostic.
	Mix transport.Mix
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
// next exchange, which is exactly the contract SetReuseAnswers needs, so
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

	end     int64 // unix nanos the horizon ends at
	charged int64 // clock high-water mark already Set

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
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.0
	}
	switch {
	case cfg.Clients <= 0:
		return nil, fmt.Errorf("workload: Clients must be positive")
	case len(cfg.Domains) == 0:
		return nil, fmt.Errorf("workload: Domains must be non-empty")
	case cfg.Duration <= 0 && cfg.MaxQueries <= 0:
		return nil, fmt.Errorf("workload: need Duration or MaxQueries")
	case cfg.ZipfS < 0:
		return nil, fmt.Errorf("workload: ZipfS must not be negative")
	case clock == nil:
		return nil, fmt.Errorf("workload: nil clock")
	case target == nil:
		return nil, fmt.Errorf("workload: nil target")
	}

	mean := 1 / OpenRate
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
	for i, d := range cfg.Domains {
		e.names[i] = dnswire.CanonicalName(d)
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

// gap draws the client's next exponential inter-arrival span, in
// nanoseconds.
func (e *Engine) gap(r *rng) int64 {
	d := r.exp(e.mean)
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
	rank := e.zipf.draw(&c.rng)
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
		e.cacheExp[slot] = ev.due + int64(StubTTL)
	}
	e.digestEvent(ev.client, ev.due, rank, outcome)
	return outcome
}

// Run drives the population from the clock's current time until the
// configured horizon (or query budget) and returns the totals. It is
// single-goroutine by construction: determinism comes from the total
// event order, not from locking. Safe to call once per engine.
func (e *Engine) Run() Summary {
	start := e.clock.Now().UnixNano()
	e.charged = start
	if e.cfg.Duration > 0 {
		e.end = start + int64(e.cfg.Duration)
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
		e.cal.Push(uint32(i), start+e.gap(&e.cal.clients[i].rng))
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
		e.cal.Push(ev.client, ev.due+e.gap(&e.cal.clients[ev.client].rng))
	}

	if e.cfg.Duration > 0 {
		e.setClock(e.end)
	}
	return Summary{Queries: e.queries, StubHits: e.stubHits, Errors: e.errors, Digest: e.digest}
}
