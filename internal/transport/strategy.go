package transport

import (
	"fmt"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// attemptResult is the outcome of one upstream try, as produced by the
// client's dial and weighed by its resolver.
type attemptResult struct {
	// Upstream is the member the attempt was dialed against.
	Upstream *Upstream
	// Msg is the decoded answer (nil when Err is set); Stale marks an
	// RFC 8767 stale answer.
	Msg   *dnswire.Message
	Stale bool
	// Bench marks errors that indicate a broken member (dead address,
	// protocol mismatch, connection death) rather than a struggling
	// recursor behind a healthy transport.
	Bench bool
	Err   error
	// Cost is the attempt's virtual completion cost: its latency sample
	// (already folded into the pool's EWMA by the dial) plus any
	// connection-setup round-trips the attempt paid (TCP+TLS for a fresh
	// DoT connection, the QUIC handshake for a fresh DoQ session). Zero
	// when the attempt failed before reaching the envelope exchange —
	// such an attempt never went on the wire, so it occupies no time on
	// the race timeline and wastes no upstream work.
	Cost time.Duration
}

// usable reports whether the attempt can win an exchange: it produced an
// answer that is not a SERVFAIL (a SERVFAIL is kept as a last resort,
// never raced to victory — the paper's Google→Cloudflare fallback).
func (at attemptResult) usable() bool {
	return at.Err == nil && at.Msg.RCode != dnswire.RCodeServFail
}

// outcome is an exchange's resolution result: the winning attempt plus
// per-attempt telemetry. Exactly one of Winner.Msg and Err is set.
type outcome struct {
	Winner attemptResult
	Err    error

	// Elapsed is the exchange's critical-path virtual duration — the sum
	// of every clock charge the resolver made, i.e. how far the exchange
	// advanced the virtual timeline. It accumulates even when latency
	// charging is off, so tracing and latency histograms see the modeled
	// timeline either way.
	Elapsed time.Duration

	// Attempts counts dials performed for the exchange (1 on the serial
	// happy path; 2 when a race fired).
	Attempts int
	// Races counts happy-eyeballs races actually started (the partner
	// launched because the primary missed the stagger deadline).
	Races int
	// LosersCancelled counts raced attempts cancelled in flight: their
	// virtual completion lay beyond the winner's, so a real client would
	// have torn them down before the answer arrived.
	LosersCancelled int
	// Wasted counts attempts that reached the wire but whose answer was
	// not used — the duplicated upstream load racing pays for its
	// latency win.
	Wasted int
}

// StrategyKind enumerates the resolution strategies for flags and
// campaign config.
type StrategyKind int

const (
	// StrategySerial tries candidates strictly one at a time: the
	// zero-value default.
	StrategySerial StrategyKind = iota
	// StrategyRace is happy-eyeballs protocol racing.
	StrategyRace
)

// String names the strategy kind.
func (k StrategyKind) String() string {
	switch k {
	case StrategySerial:
		return "serial"
	case StrategyRace:
		return "race"
	default:
		return fmt.Sprintf("strategy(%d)", int(k))
	}
}

// ParseStrategy resolves a flag value to a StrategyKind.
func ParseStrategy(name string) (StrategyKind, error) {
	for _, k := range []StrategyKind{StrategySerial, StrategyRace} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("transport: unknown strategy %q (want serial or race)", name)
}

// StrategyConfig selects a resolution strategy; the zero value is
// serial failover.
type StrategyConfig struct {
	Kind StrategyKind
}

// raceStagger is the race's head start for the primary candidate — the
// RFC 8305 "connection attempt delay", scaled to the simulation's
// synthetic 2–20ms latency band so races actually fire. (Browsers use
// 50–250ms against real-world RTTs.)
const raceStagger = 5 * time.Millisecond

// resolve drives one exchange over the pool's failover-ordered
// candidates, of which the first healthy are un-benched, under
// c.Strategy, deciding which candidates are attempted, in what
// simulated overlap, and which attempt's answer wins. tr, when
// non-nil, receives a "dial" span per attempt at its simulated launch
// offset (the race's stagger edge) with the attempt's virtual cost as
// its duration.
//
// Determinism contract: resolution runs on the virtual clock. Dials
// execute synchronously and sequentially; concurrency is *simulated* by
// comparing virtual completion times (launch offset + attempt Cost), so
// an exchange's outcome is a pure function of (clock, pool state,
// strategy parameters, latency model) — no goroutines, no wall-clock
// reads, no randomness. That is what lets pipelined campaigns stay
// byte-identical to serial runs under every strategy.
//
// A Kind outside the two strategies dials nothing and fails the
// exchange, so nothing runs under a name StrategyStats does not report.
func (c *Client) resolve(q *dnswire.Message, candidates []*Upstream, healthy int, tr *obs.Trace) outcome {
	switch c.Strategy.Kind {
	case StrategySerial:
		return c.serialResolve(q, candidates, outcome{}, attemptResult{}, nil, tr)
	case StrategyRace:
		return c.race(q, candidates, healthy, tr)
	}
	return outcome{Err: fmt.Errorf("transport: unknown %v", c.Strategy.Kind)}
}

// attempt dials one candidate launched at offset on the exchange
// timeline and counts it. A traced exchange records it as a dial span in
// the given role, with the attempt's virtual cost and outcome; unsampled
// exchanges (tr nil, the overwhelmingly common case) build no span name
// or labels, keeping the hot path allocation-free.
func (c *Client) attempt(out *outcome, up *Upstream, q *dnswire.Message, offset time.Duration, mode string, tr *obs.Trace) attemptResult {
	span := -1
	if tr != nil {
		span = tr.Enter("dial "+up.Name, offset, obs.L("proto", up.Proto.String()), obs.L("mode", mode))
	}
	at := c.dial(up, q, tr)
	out.Attempts++
	if tr != nil {
		result := "answer"
		switch {
		case at.Err != nil:
			result = "error"
		case at.Msg.RCode == dnswire.RCodeServFail:
			result = "servfail"
		}
		tr.Exit(span, at.Cost, obs.L("outcome", result))
	}
	return at
}

// serialResolve walks candidates in order, continuing from the given
// partial outcome and residue — serial failover itself, and the tail
// a race falls through to once both its attempts lost.
// Each dial launches at the timeline charged so far (out.Elapsed), which
// is exactly serial semantics: one attempt at a time, back to back.
// Every path dials each candidate once, so out.Attempts is the
// exchange's candidate count when all of them failed.
func (c *Client) serialResolve(q *dnswire.Message, candidates []*Upstream, out outcome, servFail attemptResult, lastErr error, tr *obs.Trace) outcome {
	for _, up := range candidates {
		at := c.attempt(&out, up, q, out.Elapsed, "serial", tr)
		c.charge(&out, at.Cost)
		c.bench(at)
		if at.usable() {
			c.discard(servFail)
			out.Winner = at
			return out
		}
		servFail, lastErr = c.park(at, servFail, lastErr)
	}
	if servFail.Msg != nil {
		out.Winner = servFail
		return out
	}
	out.Err = fmt.Errorf("transport: all %d upstreams failed: %w", out.Attempts, lastErr)
	return out
}

// park folds an unusable attempt into the exchange's residue. A SERVFAIL
// is a healthy transport over a struggling recursor: it supersedes (and
// recycles) any earlier one as the answer of last resort, returned only
// if every member agrees. An error becomes the failure context.
func (c *Client) park(at attemptResult, servFail attemptResult, lastErr error) (attemptResult, error) {
	if at.Err != nil {
		return servFail, fmt.Errorf("upstream %s (%s): %w", at.Upstream.Name, at.Upstream.Proto, at.Err)
	}
	c.discard(servFail)
	return at, lastErr
}

// serialFrom finishes an exchange whose primary ran alone: its cost is
// the critical path so far, a usable answer wins, and anything else
// fails over serially through the remaining candidates.
func (c *Client) serialFrom(out outcome, q *dnswire.Message, candidates []*Upstream, primary attemptResult, tr *obs.Trace) outcome {
	c.charge(&out, primary.Cost)
	if primary.usable() {
		out.Winner = primary
		return out
	}
	servFail, lastErr := c.park(primary, attemptResult{}, nil)
	return c.serialResolve(q, candidates[1:], out, servFail, lastErr, tr)
}

// race is happy-eyeballs protocol racing (the shape Firefox and Chrome
// use for DoH fallback, and RFC 8305 codifies for address families): the
// top pool candidate launches immediately, and if its answer has not
// arrived when the stagger timer fires, the next candidate speaking a
// *different* protocol launches too. First usable answer wins; the loser
// is cancelled (and accounted as wasted upstream load).
//
// On the virtual clock the race is simulated, not scheduled: the
// primary's attempt runs synchronously, its Cost decides whether the
// partner launches at all (an answer at or before the stagger edge
// cancels the timer), and completion times are compared as launch offset
// plus Cost. Ties go to the primary — it started first.
func (c *Client) race(q *dnswire.Message, candidates []*Upstream, healthy int, tr *obs.Trace) outcome {
	// The race pairs the balancer's pick with the first *healthy*
	// candidate speaking a different protocol — the happy-eyeballs
	// point is protocol diversity. A single-protocol fleet degrades to
	// racing the plain second healthy candidate (connection racing);
	// with no healthy partner (or a benched primary) there is nothing
	// worth racing and the exchange walks the candidates serially.
	pi := partner(candidates[:healthy])
	if pi < 0 {
		return c.serialResolve(q, candidates, outcome{}, attemptResult{}, nil, tr)
	}

	var out outcome
	atA := c.attempt(&out, candidates[0], q, 0, "race-primary", tr)
	c.bench(atA)
	// The primary's outcome was known before the timer fired: an answer
	// at or before the stagger edge cancels the timer (no race, no
	// waste), and a dial failure detected synchronously (never on wire,
	// zero cost) or an error/SERVFAIL arriving inside the stagger moves
	// on to the next attempt at once, as RFC 8305 does — ordinary
	// failover, not a race.
	if atA.usable() && atA.Cost <= raceStagger || !atA.usable() && attemptCompletion(atA, 0) < raceStagger {
		return c.serialFrom(out, q, candidates, atA, tr)
	}
	out.Races++
	return c.pairWith(out, q, candidates, atA, pi, tr)
}

// partner picks the race partner among the healthy head of the ordering:
// the first member after the primary speaking a different protocol, else
// the second (connection racing beats no racing), else -1 — as when the
// primary itself is benched and the head is empty. A race must not pick
// a benched partner: a duplicate attempt against a known-bad member
// wastes load and extends its bench.
func partner(healthy []*Upstream) int {
	if len(healthy) < 2 {
		return -1
	}
	for i, u := range healthy[1:] {
		if u.Proto != healthy[0].Proto {
			return i + 1
		}
	}
	return 1
}

// pairWith is the race's tail once its timer fired: the partner at index
// pi launches at the stagger edge while the primary (atA, launched at 0)
// is in flight, the earlier usable completion wins, and if both lost the
// exchange charges the pair's window and fails over serially through the
// remaining candidates, keeping any SERVFAIL as the answer of last
// resort.
func (c *Client) pairWith(out outcome, q *dnswire.Message, candidates []*Upstream, atA attemptResult, pi int, tr *obs.Trace) outcome {
	atB := c.attempt(&out, candidates[pi], q, raceStagger, "race-partner", tr)
	c.bench(atB)
	aDone, bDone := atA.Cost, raceStagger+atB.Cost
	switch {
	case atA.usable() && (!atB.usable() || aDone <= bDone):
		return c.win(out, atA, atB, aDone, bDone)
	case atB.usable():
		return c.win(out, atB, atA, bDone, aDone)
	}
	servFail, lastErr := c.park(atA, attemptResult{}, nil)
	servFail, lastErr = c.park(atB, servFail, lastErr)
	c.charge(&out, max(atA.Cost, attemptCompletion(atB, raceStagger)))
	// The candidates not yet tried — all but the head and the partner —
	// gather in a stack array, so the common fleet sizes fall through
	// without heap-allocating the remainder list.
	var restBuf [8]*Upstream
	rest := restBuf[:0]
	for i, up := range candidates {
		if i != 0 && i != pi {
			rest = append(rest, up)
		}
	}
	return c.serialResolve(q, rest, out, servFail, lastErr, tr)
}

// win settles a paired exchange: the winner's completion is the critical
// path, and the loser — if it reached the wire — is wasted upstream
// load, cancelled in flight when it would have completed later; its
// answer can no longer escape the exchange, so it goes back to the pool.
func (c *Client) win(out outcome, winner, loser attemptResult, winDone, loseDone time.Duration) outcome {
	c.charge(&out, winDone)
	out.Winner = winner
	if loser.Cost > 0 || loser.Err == nil {
		out.Wasted++
		if loseDone > winDone {
			out.LosersCancelled++
		}
	}
	c.discard(loser)
	return out
}

// attemptCompletion places an attempt on the exchange timeline: launch
// offset plus cost for attempts that reached the wire, zero otherwise.
func attemptCompletion(at attemptResult, offset time.Duration) time.Duration {
	if at.Cost <= 0 {
		return 0
	}
	return offset + at.Cost
}

// StrategyStats snapshots a client's resolution-strategy telemetry: the
// racing overhead counters and the winner-protocol distribution
// (which envelope actually answered — the happy-eyeballs question).
type StrategyStats struct {
	// Strategy is the active strategy's name.
	Strategy string
	// Exchanges counts completed Exchange calls; Attempts counts dials,
	// so Attempts-Exchanges is the duplicated-load overhead ceiling.
	Exchanges uint64
	Attempts  uint64
	// Races, LosersCancelled, and Wasted aggregate the per-exchange
	// outcome telemetry.
	Races           uint64
	LosersCancelled uint64
	Wasted          uint64
	// WinsByProto counts winning answers per envelope protocol.
	WinsByProto map[Protocol]uint64
}

// Add folds another snapshot's counters in (for aggregation across
// clients).
func (s *StrategyStats) Add(o StrategyStats) {
	s.Exchanges += o.Exchanges
	s.Attempts += o.Attempts
	s.Races += o.Races
	s.LosersCancelled += o.LosersCancelled
	s.Wasted += o.Wasted
	if s.WinsByProto == nil {
		s.WinsByProto = map[Protocol]uint64{}
	}
	for p, n := range o.WinsByProto {
		s.WinsByProto[p] += n
	}
}

// WasteRate is the fraction of dials whose answer went unused — the
// duplicated-load price of racing (0 when idle).
func (s StrategyStats) WasteRate() float64 {
	return obs.Ratio(s.Wasted, s.Attempts)
}
