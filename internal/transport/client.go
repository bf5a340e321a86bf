package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// Errors returned by client exchanges.
var (
	ErrNoUpstreams = errors.New("transport: no healthy upstreams")
	ErrNotProto    = errors.New("transport: service does not speak the member's protocol")
	errWrongAnswer = errors.New("transport: answer does not match the query's ID and question")
)

// Client is a protocol-agnostic encrypted-DNS stub: it exchanges queries
// with pool members over simnet, speaking whatever envelope each member
// advertises — RFC 8484 DoH request/response envelopes, RFC 7858 DoT
// frames over a persistent per-member connection, or RFC 9250 DoQ
// streams over a per-member session. Which members are attempted, in
// what simulated overlap, and whose answer wins is decided by its
// Strategy over the pool's candidate ordering; every attempt goes through
// one per-member session table. It satisfies the scanner's Transport
// interface, so the measurement framework can run its campaigns through
// any protocol mix and any resolution strategy instead of bare stub
// queries.
type Client struct {
	Net  *simnet.Network
	Pool *Pool
	// Strategy is the resolution policy driving each exchange; the zero
	// value is serial failover.
	Strategy StrategyConfig
	// Latency is the latency model: the RTT of one exchange with u, fed
	// to the pool's EWMA and costed on the exchange's virtual timeline.
	// newClient sets the 2–20 ms SyntheticLatency band; it must not be
	// nil. Exchanges are synchronous in-process calls, so the model is
	// the only clock an attempt reads: the EWMA/P2 routing decisions and
	// the race's completion-time comparisons replay with the rest of the
	// simulation.
	Latency func(u *Upstream) time.Duration
	// ChargeLatency additionally charges each exchange's critical path —
	// including per-protocol connection-setup costs: two extra RTTs for
	// a fresh DoT connection (TCP + TLS), one for a fresh DoQ session
	// (QUIC handshake), none for a 0-RTT DoQ resumption — to the
	// network's virtual clock, so queueing delay through the serving
	// layer is observable in campaign timings. A race charges the
	// winner's completion time, not the sum of attempts: overlapped
	// work costs wall time only along the critical path. Leave it off
	// where bitwise reproducibility matters more than modeled delay:
	// concurrent workers interleave their clock charges
	// nondeterministically, which is why per-day campaign replicas keep
	// their clocks frozen.
	ChargeLatency bool
	// Tracer, when non-nil, head-samples exchanges into span traces on
	// the virtual clock (see obs.Tracer). Every exchange, sampled or not,
	// reports its anomaly flags (error, SERVFAIL, stale, failover, race)
	// and virtual cost to Finish — all a tail-retention policy
	// needs; unsampled exchanges record no spans. Nil traces nothing and
	// costs one nil check per exchange.
	Tracer *obs.Tracer
	// Recorder, when non-nil, receives flight-recorder events: the
	// winner-side kinds (client.error, client.stale, client.negative, each
	// emitted beside the counter that campaigns store) plus strategy and
	// pool-cooldown kinds. Nil records nothing.
	Recorder *obs.Recorder

	// reuseAnswers opts into answer-message recycling (SetReuseAnswers):
	// the *dnswire.Message an exchange returns stays valid only until this
	// client's next exchange begins, at which point its memory is reclaimed
	// for the next answer. Callers that consume each answer before issuing
	// the next query (the workload engine, benchmarks, any serial driver)
	// get a near-allocation-free exchange loop; callers that retain answers
	// or exchange concurrently must leave it off — the default keeps the
	// returned message caller-owned until the caller itself gives it back
	// with Recycle, the explicit form of the same hand-over.
	reuseAnswers bool

	mu  sync.Mutex
	qid uint16
	// sessions holds the live session to each member dialed. A dropped
	// session leaves a nil value: the member was dialed before, so a DoQ
	// redial resumes with 0-RTT on the ticket its first handshake issued.
	sessions map[*Upstream]session
	lastAns  *dnswire.Message

	// msgPool recycles attempt answer messages, one pool per question type
	// the scanner asks and one for every other type (msgPoolIndex). Every
	// attempt decodes into a message from its query type's pool, so the
	// decode lands on sections that last held answers of its own shape and
	// reuses their RDATA; losers go back via discard as soon as resolve
	// rules them out, and winners come home when the caller hands them to
	// Recycle or, under reuseAnswers, via the lastAns swap at the next
	// exchange. A message goes home to the pool its own question names.
	msgPool [len(pooledTypes) + 1]sync.Pool

	// exchangeLatency, bound by a fleet, observes each successful
	// exchange's critical-path virtual duration.
	exchangeLatency *obs.Histogram

	staleAnswers    obs.Counter
	negativeAnswers obs.Counter
	errAnswers      obs.Counter
	servfailAnswers obs.Counter

	// Strategy telemetry (see StrategyStats).
	exchanges       obs.Counter
	attempts        obs.Counter
	races           obs.Counter
	losersCancelled obs.Counter
	wasted          obs.Counter
	winsByProto     [3]obs.Counter
}

// StaleAnswers counts exchanges answered with an RFC 8767 stale response
// (a frontend served past-TTL data because its recursor was unavailable) —
// the stub-side measure of the staleness windows §4.4.2 quantifies. All
// three envelopes report it: DoH as a response flag, DoT and DoQ as frame
// metadata standing in for the RFC 8914 "Stale Answer" extended error.
func (c *Client) StaleAnswers() uint64 { return c.staleAnswers.Load() }

// NegativeAnswers counts exchanges whose winning answer was an RFC 2308
// negative (NXDOMAIN, or NOERROR with an empty answer section — NODATA),
// the same classification the answer cache applies. Campaign serving
// snapshots record this stub-side count rather than the frontends'
// negative-hit counters: a racing strategy touches a
// nondeterministic number of frontends per exchange, but each exchange
// has exactly one winner, so per-exchange counters stay byte-identical
// between serial and pipelined campaign runs.
func (c *Client) NegativeAnswers() uint64 { return c.negativeAnswers.Load() }

// Errors counts exchanges that failed outright — every candidate errored
// and nothing (fresh, stale, or SERVFAIL) could be served. Together with
// ServFails it is the badness numerator of the SLO engine's availability
// objective.
func (c *Client) Errors() uint64 { return c.errAnswers.Load() }

// ServFails counts exchanges whose winning answer was a SERVFAIL — the
// recursor struggled over a healthy transport and no stale cover existed.
func (c *Client) ServFails() uint64 { return c.servfailAnswers.Load() }

// newClient creates a stub over the given network and pool, with the
// 2–20 ms SyntheticLatency band as its latency model.
func newClient(net *simnet.Network, pool *Pool) *Client {
	return &Client{
		Net: net, Pool: pool,
		Latency:  SyntheticLatency(2*time.Millisecond, 18*time.Millisecond),
		sessions: map[*Upstream]session{},
	}
}

// pooledTypes are the question types with an answer pool of their own:
// the daily scan's HTTPS, A, AAAA, SOA and NS.
var pooledTypes = [...]dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeSOA, dnswire.TypeNS}

// msgPoolIndex names the answer pool of question type t: its own if it
// has one, else the last, which every other type shares.
func msgPoolIndex(t dnswire.Type) int {
	for i, pt := range pooledTypes {
		if t == pt {
			return i
		}
	}
	return len(pooledTypes)
}

// getMsg pops a recycled answer message, from question type t's pool,
// for a dial attempt to decode into.
func (c *Client) getMsg(t dnswire.Type) *dnswire.Message {
	if m, ok := c.msgPool[msgPoolIndex(t)].Get().(*dnswire.Message); ok {
		return m
	}
	return new(dnswire.Message)
}

// putMsg takes an answer message home, to the pool its question's type
// names (a message without a question goes with the other types). Under
// the race detector it is poisoned once that question is read — a header
// no real answer carries (QR clear, opcode 15, RCODE 0xffff; AA, TC, AD,
// CD set), every question and record of type and class 0 under poisonName
// — so a read after the hand-back cannot pass for an answer. RDATA values
// and slice capacity stay for the next decode to reuse, and for the race
// detector to catch a holder of one when that decode overwrites it.
func (c *Client) putMsg(m *dnswire.Message) {
	var t dnswire.Type
	if len(m.Question) > 0 {
		t = m.Question[0].Type
	}
	if testrace.Enabled {
		*m = dnswire.Message{ID: 0xdead, Opcode: 15, RCode: 0xffff,
			Authoritative: true, Truncated: true, AuthenticatedData: true, CheckingDisabled: true,
			Question: m.Question, Answer: m.Answer, Authority: m.Authority, Additional: m.Additional}
		for i := range m.Question {
			m.Question[i] = dnswire.Question{Name: poisonName}
		}
		for _, sec := range [...][]dnswire.RR{m.Answer, m.Authority, m.Additional} {
			for i := range sec {
				sec[i] = dnswire.RR{Name: poisonName, TTL: 0xffffffff, Data: sec[i].Data}
			}
		}
	}
	c.msgPool[msgPoolIndex(t)].Put(m)
}

const poisonName = "poisoned-after-recycle.invalid."

// discard returns a losing attempt's answer message to the recycle pool.
// resolve calls it exactly for attempts whose answer can no longer escape
// the exchange — raced losers, and parked SERVFAILs superseded
// by a better answer — so recycling is unconditionally safe here: only
// the winner's message reaches the caller.
func (c *Client) discard(at attemptResult) {
	if at.Msg != nil {
		c.putMsg(at.Msg)
	}
}

// Recycle hands an answer Exchange returned back to the client once the
// caller has read what it needs: the message, and everything reachable
// from it (sections, RDATA values, their byte slices), is reclaimed for a
// later exchange's decode and must not be touched again. It is the explicit
// way into the pool that discard and reuseAnswers feed; if m is the answer
// reuseAnswers would reclaim at the next exchange, that claim is dropped,
// so one message is never pooled twice. Safe for concurrent use.
func (c *Client) Recycle(m *dnswire.Message) {
	if c.reuseAnswers {
		c.mu.Lock()
		if c.lastAns == m {
			c.lastAns = nil
		}
		c.mu.Unlock()
	}
	c.putMsg(m)
}

// SetReuseAnswers toggles reuseAnswers (see the field's contract). It
// exists so serial drivers like the workload engine can opt a client in
// for exactly the span they are its sole user.
func (c *Client) SetReuseAnswers(on bool) {
	if !on {
		// Leaving reuse mode: the last answer may still be in the
		// caller's hands, so forget it rather than recycling it.
		c.mu.Lock()
		c.lastAns = nil
		c.mu.Unlock()
	}
	c.reuseAnswers = on
}

// reclaimLast recycles the previous exchange's winning answer under the
// reuseAnswers contract: by the time the next exchange begins, the caller
// is done with it.
func (c *Client) reclaimLast() {
	c.mu.Lock()
	last := c.lastAns
	c.lastAns = nil
	c.mu.Unlock()
	if last != nil {
		c.putMsg(last)
	}
}

// nextID allocates a query ID (DoH recommends ID 0 for cacheability; the
// simulated stack keeps real IDs to exercise the ID-rewrite path — except
// on DoQ streams, where the ID is rewritten to the mandatory 0).
func (c *Client) nextID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.qid++
	return c.qid
}

// Exchange sends the query to the pool: candidate selection (the pool's
// failover ordering), then strategy dispatch — serial failover or a
// happy-eyeballs protocol race, per the client's Strategy. Per-attempt
// RTTs fold into the pool's EWMA; protocol dispatch happens per member,
// so a mixed fleet races and fails over across protocols transparently.
func (c *Client) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	return c.ExchangePreferring(q, ProtoAny)
}

// ExchangePreferring is Exchange with a per-call protocol preference:
// pool members speaking pref are stable-partitioned to the front of the
// candidate ordering (healthy before benched as always), so the
// strategy attempts — and a race's head start — favor the caller's
// protocol. ProtoAny is plain Exchange. This is the per-client
// preference hook the workload engine's simulated stubs resolve
// through; one client's preference is a per-call argument, not client
// state, so a single Client serves a million differently-preferenced
// stubs.
func (c *Client) ExchangePreferring(q *dnswire.Message, pref Protocol) (*dnswire.Message, error) {
	if len(q.Question) == 0 {
		return nil, fmt.Errorf("%w: query without question", ErrBadEnvelope)
	}
	if c.reuseAnswers {
		c.reclaimLast()
	}
	name := dnswire.CanonicalName(q.Question[0].Name)
	// Write the canonical form back so every downstream consumer — wire
	// packing, cache keys, trace labels — reuses this one normalisation
	// instead of re-canonicalising (and re-allocating) per site.
	q.Question[0].Name = name
	// The ordering lives on the stack: resolve consumes it synchronously
	// and only the winning *Upstream escapes via the outcome, so the
	// common fleet sizes cost no allocation and a larger one spills once.
	var buf [8]*Upstream
	candidates, healthy := c.Pool.candidates(buf[:0], pref)
	if len(candidates) == 0 {
		return nil, ErrNoUpstreams
	}
	tr := c.Tracer.Start(name)
	if tr != nil {
		tr.Add("receive", 0, 0,
			obs.L("qtype", q.Question[0].Type.String()),
			obs.L("strategy", c.Strategy.Kind.String()))
	}
	out := c.resolve(q, candidates, healthy, tr)
	// The anomaly flags are a function of the outcome alone, so the
	// tracer's tail predicate judges every exchange, traced or not. An
	// exchange that raced or failed over is anomalous enough to retain.
	var flags obs.TraceFlag
	if out.Races > 0 {
		flags = obs.FlagRace
	} else if out.Attempts > 1 {
		flags = obs.FlagFailover
	}
	c.account(out)
	if out.Err != nil {
		c.errAnswers.Add(1)
		c.Recorder.Emit("client.error")
		if tr != nil {
			tr.Add("fail", out.Elapsed, 0, obs.L("err", out.Err.Error()))
		}
		c.Tracer.Finish(tr, name, flags|obs.FlagError, out.Elapsed)
		return nil, out.Err
	}
	if out.Winner.Stale {
		c.staleAnswers.Add(1)
		c.Recorder.Emit("client.stale")
		flags |= obs.FlagStale
	}
	if m := out.Winner.Msg; m.RCode == dnswire.RCodeNXDomain ||
		(m.RCode == dnswire.RCodeNoError && len(m.Answer) == 0) {
		c.negativeAnswers.Add(1)
		c.Recorder.Emit("client.negative")
	}
	if out.Winner.Msg.RCode == dnswire.RCodeServFail {
		c.servfailAnswers.Add(1)
		flags |= obs.FlagServFail
	}
	if tr != nil {
		tr.Add("commit", out.Elapsed, 0, obs.L("winner", out.Winner.Upstream.Name))
	}
	c.Tracer.Finish(tr, name, flags, out.Elapsed)
	if c.exchangeLatency != nil {
		c.exchangeLatency.Observe(out.Elapsed)
	}
	if c.reuseAnswers {
		c.mu.Lock()
		c.lastAns = out.Winner.Msg
		c.mu.Unlock()
	}
	return out.Winner.Msg, nil
}

// account folds one exchange's outcome into the client's telemetry and
// emits the flight-recorder events describing the exchange's shape. The
// shape events are volatile: which members an exchange dials — and hence
// whether it raced or failed over — depends on pool state other
// workers mutated concurrently.
func (c *Client) account(out outcome) {
	c.exchanges.Add(1)
	c.attempts.Add(uint64(out.Attempts))
	c.races.Add(uint64(out.Races))
	c.losersCancelled.Add(uint64(out.LosersCancelled))
	c.wasted.Add(uint64(out.Wasted))
	if c.Recorder != nil {
		if out.Races > 0 {
			c.Recorder.Emit("strategy.race")
		}
		if out.LosersCancelled > 0 {
			c.Recorder.Emit("strategy.cancel")
		}
		if out.Attempts > 1 && out.Races == 0 {
			c.Recorder.Emit("strategy.failover")
		}
	}
	if out.Err == nil {
		if p := out.Winner.Upstream.Proto; p >= 0 && int(p) < len(c.winsByProto) {
			c.winsByProto[p].Add(1)
		}
	}
}

// StrategyStats snapshots the client's resolution telemetry: attempt
// overhead, races fired, losers cancelled, wasted upstream
// queries, and the winner-protocol distribution.
func (c *Client) StrategyStats() StrategyStats {
	st := StrategyStats{
		Strategy:        c.Strategy.Kind.String(),
		Exchanges:       c.exchanges.Load(),
		Attempts:        c.attempts.Load(),
		Races:           c.races.Load(),
		LosersCancelled: c.losersCancelled.Load(),
		Wasted:          c.wasted.Load(),
		WinsByProto:     map[Protocol]uint64{},
	}
	for p := range c.winsByProto {
		if n := c.winsByProto[p].Load(); n > 0 {
			st.WinsByProto[Protocol(p)] = n
		}
	}
	return st
}

// bindMetrics registers the client's per-exchange counters onto a
// registry. The existing accessors (StaleAnswers, StrategyStats) keep
// working as views over the same handles.
func (c *Client) bindMetrics(reg *obs.Registry) {
	reg.RegisterCounter(&c.exchanges, "client_exchanges_total")
	reg.RegisterCounter(&c.staleAnswers, "client_stale_answers_total")
	reg.RegisterCounter(&c.negativeAnswers, "client_negative_answers_total")
	reg.RegisterCounter(&c.errAnswers, "client_errors_total")
	reg.RegisterCounter(&c.servfailAnswers, "client_servfail_total")
	reg.RegisterCounter(&c.attempts, "strategy_attempts_total")
	reg.RegisterCounter(&c.races, "strategy_races_total")
	reg.RegisterCounter(&c.losersCancelled, "strategy_losers_cancelled_total")
	reg.RegisterCounter(&c.wasted, "strategy_wasted_total")
	for p := range c.winsByProto {
		reg.RegisterCounter(&c.winsByProto[p], "strategy_wins_total",
			obs.L("proto", Protocol(p).String()))
	}
	c.exchangeLatency = obs.NewHistogram(obs.DefaultLatencyBuckets()...)
	reg.RegisterHistogram(c.exchangeLatency, "exchange_latency_seconds")
}

// session is a client's channel to one member — a DoT connection, a DoQ
// session or a DoH GET session. Exchange sends q and decodes the answer
// into into; stale marks an RFC 8767 stale answer; a nil tr traces
// nothing.
type session interface {
	Exchange(q, into *dnswire.Message, tr *obs.Trace) (stale bool, err error)
}

// dialer is a service a client can dial (a Frontend, or a test's wrapper
// around one): its protocol, and a dial that opens a session to it at ap
// — resumed if the client dialed the member before (a DoQ frontend then
// resumes with 0-RTT), costing setupRTTs round-trips.
type dialer interface {
	protocol() Protocol
	dial(n *simnet.Network, ap netip.AddrPort, resumed bool) (s session, setupRTTs int)
}

// protoNames spells each protocol the way error text does.
var protoNames = map[Protocol]string{ProtoDoH: "DoH", ProtoDoT: "DoT", ProtoDoQ: "DoQ"}

// dial performs one synchronous attempt against the member over its
// session. The attempt's RTT is fed to the pool as part of the dial
// (completed exchanges are valid samples no matter which attempt wins);
// the virtual clock is NOT advanced — resolve owns the exchange's
// timeline and charges its critical path once. A non-nil tr threads
// server-side span recording through the envelope into the frontend.
func (c *Client) dial(up *Upstream, q *dnswire.Message, tr *obs.Trace) (at attemptResult) {
	at.Upstream = up
	s, setup, err := c.session(up)
	if err != nil {
		// Failure injection (the address or port is down) or a protocol
		// mismatch: the attempt never reached the wire.
		at.Bench, at.Err = true, err
		return at
	}
	id := q.ID
	if up.Proto == ProtoDoQ {
		// RFC 9250 §4.2.1: the ID on a stream is 0. The exchange is
		// synchronous: zero it in place, restore it on query and answer.
		q.ID = 0
	}
	m := c.getMsg(q.Question[0].Type)
	// The query's question in the recycled slot: the decode keeps its name
	// for the answer's question and every owner spelled the same way.
	m.Question = append(m.Question[:0], q.Question[0])
	at.Stale, err = s.Exchange(q, m, tr)
	if err == nil && !m.Answers(q) {
		err = errWrongAnswer
	}
	q.ID = id
	if err == nil {
		m.ID = id
		at.Msg, at.Cost = m, c.sample(up, setup)
		return at
	}
	c.putMsg(m)
	at.Err = err
	if a, ok := err.(*answeredError); ok {
		// The DoH frontend answered: the round-trip happened. A 502 is
		// recursor trouble over a healthy transport, not benched, like a
		// SERVFAIL; anything else is a protocol mismatch worth a cooldown.
		at.Bench = a.status != StatusServFailUpstream
		at.Cost = c.sample(up, setup)
	} else if !errors.Is(err, ErrStreamReset) {
		// The session died (peer down, or a framing violation closed it)
		// or answered some other query: the next attempt redials. A DoQ stream reset kills only its stream.
		c.drop(up, s)
		at.Bench = true
	}
	return at
}

// session returns the client's live session to the member, dialing one
// if there is none, and the setup round-trips this attempt pays (none if
// the session was open). Lookup and dial run under the client lock, so
// attempts that miss at once share one dial.
func (c *Client) session(up *Upstream) (session, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, dialed := c.sessions[up]
	if s != nil {
		return s, 0, nil
	}
	svc, err := c.Net.Service(up.Addr)
	if err != nil {
		return nil, 0, err
	}
	d, ok := svc.(dialer)
	if !ok || d.protocol() != up.Proto {
		return nil, 0, fmt.Errorf("%w: %v is not %s", ErrNotProto, up.Addr, protoNames[up.Proto])
	}
	s, setup := d.dial(c.Net, up.Addr, dialed)
	c.sessions[up] = s
	return s, setup, nil
}

// drop forgets a session that died, unless another attempt has already
// replaced it with a fresh one. The member stays marked as dialed.
func (c *Client) drop(up *Upstream, s session) {
	c.mu.Lock()
	if c.sessions[up] == s {
		c.sessions[up] = nil
	}
	c.mu.Unlock()
}

// bench reports an attempt's transport-level failure (its Bench flag) to
// the pool, which benches the member for its cooldown.
func (c *Client) bench(at attemptResult) {
	if at.Err == nil || !at.Bench {
		return
	}
	c.Pool.markFailed(at.Upstream)
	if c.Recorder != nil {
		c.Recorder.Emit("pool.cooldown", obs.L("member", at.Upstream.Name))
	}
}

// charge advances the virtual clock by d of the exchange's critical path
// (with ChargeLatency on) and accumulates it into out.Elapsed, so an
// outcome's Elapsed is the exchange's timeline by construction.
func (c *Client) charge(out *outcome, d time.Duration) {
	out.Elapsed += d
	if c.ChargeLatency && d > 0 {
		c.Net.Clock.Advance(d)
	}
}

// sample feeds the pool the latency model's RTT for the member and
// returns the attempt's cost: the RTT plus setupRTTs extra round-trips of
// connection establishment. The virtual clock is not touched here —
// resolve charges its critical path once the exchange's shape is known.
func (c *Client) sample(up *Upstream, setupRTTs int) time.Duration {
	d := c.Latency(up)
	c.Pool.observeRTT(up, d)
	return d + time.Duration(setupRTTs)*d
}

// Query builds and exchanges a recursion-desired query for (name, type).
func (c *Client) Query(name string, t dnswire.Type, dnssecOK bool) (*dnswire.Message, error) {
	return c.Exchange(dnswire.NewQuery(c.nextID(), name, t, dnssecOK))
}
