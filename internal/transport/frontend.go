package transport

import (
	"errors"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrUpstreamFailed reports that a frontend's handler hard-failed and no
// stale answer was available to cover for it. The DoH codec maps it to a
// 502 envelope; DoT and DoQ synthesize a SERVFAIL message instead, which
// is all those wire formats can say.
var ErrUpstreamFailed = errors.New("transport: upstream failed with no stale answer")

// Frontend is one encrypted-DNS frontend, the service a fleet registers
// at its address: it consults the (optionally shared) answer cache,
// forwards misses to the wrapped DNS handler — normally a caching
// recursive resolver, mirroring how public encrypted-DNS endpoints sit in
// front of the same recursive fleet the paper queried over UDP — and
// keeps the lifecycle counters. Proto picks the envelope a client's dial
// opens (a DoH GET session, a DoT connection or a DoQ session); every
// session resolves through the same Frontend, so all three protocols
// share one cache/failover/stats implementation.
//
// With a lifecycle-configured Cache the frontend implements the RFC 8767
// serve-stale flow: a fresh hit is served directly (arming a refresh-ahead
// prefetch when the entry nears expiry); on a miss or stale probe the
// handler is consulted, and if it hard-fails (nil) or SERVFAILs while a
// stale body is available, the stale answer is served instead of an error.
// A hard handler failure also arms FailureCooldown, during which stale
// answers are served without re-trying the handler at all — the fleet
// stops hammering a dead recursor, exactly the behavior behind the
// paper's §4.3.5/§4.4.2 staleness windows.
type Frontend struct {
	// Name labels the frontend in stats output.
	Name string
	// Proto is the envelope the frontend speaks: it labels stats, a
	// client checks it before dialing, and dial switches on it (Resolve
	// is protocol-blind).
	Proto Protocol
	// Handler answers cache misses (a resolver.Resolver in practice).
	Handler simnet.DNSHandler
	// Cache, when non-nil, is consulted before the handler; share one
	// Cache value across frontends to model an anycast fleet. Expiry runs
	// on the Cache's own virtual clock.
	Cache *Cache
	// FailureCooldown benches the handler after a hard failure (nil
	// response): while it runs, stale-capable queries are answered from
	// the cache without consulting the handler. Queries with nothing
	// stale to serve still try the handler (there is no better option),
	// and a success clears the cooldown early. Zero disables benching.
	// Requires Cache (the cooldown runs on its virtual clock).
	FailureCooldown time.Duration
	// Recorder, when non-nil, receives flight-recorder events for the
	// frontend's anomaly-relevant transitions: stale serves (with the
	// reason), refresh-ahead prefetches, and hard handler failures. All
	// frontend-side kinds are volatile — which frontend a given attempt
	// hits depends on worker interleaving.
	Recorder *obs.Recorder

	// cooldownUntil is the virtual instant (Unix nanoseconds) the armed
	// failure cooldown ends; zero when none is armed.
	cooldownUntil atomic.Int64

	// Lifecycle counters are obs handles so a fleet registry can expose
	// them without an extra indirection on the increment path; the
	// zero values work unregistered, so a bare Frontend needs no setup.
	served       obs.Counter
	cacheHits    obs.Counter
	staleServed  obs.Counter
	negativeHits obs.Counter
	prefetches   obs.Counter
	upstreamFail obs.Counter
}

// Answer is the protocol-independent outcome of one resolved query,
// ready for the envelope codec to frame.
type Answer struct {
	// Wire is the packed response with the query's ID already in place.
	Wire []byte
	// Stale marks an RFC 8767 serve-stale answer: the frontend's upstream
	// could not produce a fresh one, so a past-TTL cache entry was served
	// with capped TTLs. The DoH envelope carries it as a header-equivalent
	// flag; DoT/DoQ carry it as frame metadata standing in for the
	// RFC 8914 "Stale Answer" extended error.
	Stale bool
}

// FrontendStats reports one frontend's traffic and cache-lifecycle
// counters.
type FrontendStats struct {
	Name      string
	Proto     Protocol
	Served    uint64
	CacheHits uint64
	// StaleServed counts RFC 8767 stale answers served because the
	// handler failed or was in cooldown.
	StaleServed uint64
	// NegativeHits counts fresh cache hits on RFC 2308 negative entries.
	NegativeHits uint64
	// Prefetches counts refresh-ahead upstream refreshes performed.
	Prefetches uint64
	// UpstreamFailures counts hard handler failures and SERVFAILs that
	// triggered (or would have triggered) stale serving.
	UpstreamFailures uint64
}

// Add folds another frontend's counters in (for per-protocol and
// fleet-wide aggregation).
func (s *FrontendStats) Add(o FrontendStats) {
	s.Served += o.Served
	s.CacheHits += o.CacheHits
	s.StaleServed += o.StaleServed
	s.NegativeHits += o.NegativeHits
	s.Prefetches += o.Prefetches
	s.UpstreamFailures += o.UpstreamFailures
}

// HitRate is the fresh-hit fraction of served queries (0 when idle).
func (s FrontendStats) HitRate() float64 {
	return obs.Ratio(s.CacheHits, s.Served)
}

// Stats returns the frontend's counters.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		Name:             f.Name,
		Proto:            f.Proto,
		Served:           f.served.Load(),
		CacheHits:        f.cacheHits.Load(),
		StaleServed:      f.staleServed.Load(),
		NegativeHits:     f.negativeHits.Load(),
		Prefetches:       f.prefetches.Load(),
		UpstreamFailures: f.upstreamFail.Load(),
	}
}

// protocol is what a client checks against the member's before dialing.
func (f *Frontend) protocol() Protocol { return f.Proto }

// dial opens a client's session to the frontend at ap and returns the
// setup round-trips it costs: none for a DoH GET session, two for a DoT
// connection (TCP, then TLS 1.3), one for a DoQ session's QUIC handshake,
// or none when resumed with 0-RTT on a ticket from an earlier session.
func (f *Frontend) dial(n *simnet.Network, ap netip.AddrPort, resumed bool) (session, int) {
	switch f.Proto {
	case ProtoDoT:
		return &dotConn{framedConn{fe: f, net: n, ap: ap}}, 2
	case ProtoDoQ:
		s := &doqSession{framedConn{fe: f, net: n, ap: ap}}
		if resumed {
			return s, 0
		}
		return s, 1
	default:
		return &dohSession{fe: f, net: n, ap: ap}, 0
	}
}

// inCooldown reports whether the handler is benched after a hard failure.
func (f *Frontend) inCooldown() bool {
	if f.FailureCooldown <= 0 || f.Cache == nil {
		return false
	}
	return f.cooldownUntil.Load() > f.Cache.clock.Now().UnixNano()
}

// noteHandlerFailure arms the failure cooldown.
func (f *Frontend) noteHandlerFailure() {
	f.upstreamFail.Add(1)
	if f.Recorder != nil {
		f.Recorder.Emit("frontend.dead", obs.L("frontend", f.Name))
	}
	if f.FailureCooldown <= 0 || f.Cache == nil {
		return
	}
	f.cooldownUntil.Store(f.Cache.clock.Now().Add(f.FailureCooldown).UnixNano())
}

// noteHandlerSuccess clears any cooldown: a demonstrably-answering
// handler is healthy.
func (f *Frontend) noteHandlerSuccess() {
	if f.FailureCooldown <= 0 {
		return
	}
	f.cooldownUntil.Store(0)
}

// bindMetrics registers the frontend's counters onto a registry, labeled
// by frontend name and protocol. The old Stats() accessors keep working
// as thin views over the same handles.
func (f *Frontend) bindMetrics(reg *obs.Registry) {
	labels := []obs.Label{obs.L("frontend", f.Name), obs.L("proto", f.Proto.String())}
	reg.RegisterCounter(&f.served, "frontend_served_total", labels...)
	reg.RegisterCounter(&f.cacheHits, "frontend_cache_hits_total", labels...)
	reg.RegisterCounter(&f.staleServed, "frontend_stale_served_total", labels...)
	reg.RegisterCounter(&f.negativeHits, "frontend_negative_hits_total", labels...)
	reg.RegisterCounter(&f.prefetches, "frontend_prefetches_total", labels...)
	reg.RegisterCounter(&f.upstreamFail, "frontend_upstream_failures_total", labels...)
}

// Resolve walks the cache lifecycle (fresh → prefetch → stale → upstream)
// for one decoded query and returns the wire answer for the envelope
// codec. It returns ErrUpstreamFailed only when the handler hard-failed
// and nothing stale could cover for it.
//
// The answer body is appended to dst (aliasing its backing array, per the
// contract in doc.go), so envelope sessions that recycle a per-exchange
// buffer serve cache hits without allocating; a nil dst allocates.
// Server-side spans are recorded onto tr (a nil tr traces nothing, and
// every tracer call site is guarded so that fast path builds no label
// slices). The spans are structural — zero offset and duration — because
// the frontend's work rides inside the enclosing dial span, whose virtual
// cost the strategy layer charges.
func (f *Frontend) Resolve(q *dnswire.Message, dst []byte, tr *obs.Trace) (Answer, error) {
	f.served.Add(1)

	if q.Opcode != dnswire.OpcodeQuery || len(q.Question) != 1 {
		// Only a standard query with one question is resolved and cached;
		// any other opcode is one this server does not implement
		// (RFC 1035 §4.1.1).
		resp := q.Reply()
		defer resp.Release()
		resp.RCode = dnswire.RCodeFormErr
		if q.Opcode != dnswire.OpcodeQuery {
			resp.RCode = dnswire.RCodeNotImp
		}
		return packAnswerAppend(resp, dst)
	}
	key := cacheKey(q)

	stale := false
	if f.Cache != nil {
		// Wire fast path: a hit is one append + ID/TTL patches, no encode.
		probe := f.Cache.probe(key, q.ID, dst)
		if tr != nil {
			tr.Add("cache.probe", 0, 0, obs.L("state", probe.State.String()))
		}
		switch probe.State {
		case stateFresh:
			f.cacheHits.Add(1)
			if probe.Negative {
				f.negativeHits.Add(1)
			}
			// A benched handler is not probed even for prefetch — the
			// refresh opportunity for this entry generation is forfeited
			// and serve-stale covers the eventual expiry instead.
			if probe.NeedsRefresh && !f.inCooldown() {
				if tr != nil {
					tr.Add("prefetch", 0, 0)
				}
				f.prefetch(key, q)
			}
			echoFlags(probe.Body, q)
			return Answer{Wire: probe.Body}, nil
		case stateStale:
			stale = true
			// A benched handler: ride the stale answer out rather than
			// hammering a dead recursor.
			if f.inCooldown() {
				if ans, ok := f.serveStale(key, q, dst, tr, "cooldown"); ok {
					return ans, nil
				}
			}
		}
	}

	resp := f.handle(q)
	if resp == nil {
		f.noteHandlerFailure()
		if stale {
			if ans, ok := f.serveStale(key, q, dst, tr, "upstream-dead"); ok {
				return ans, nil
			}
		}
		if tr != nil {
			tr.Add("upstream", 0, 0, obs.L("outcome", "failed"))
		}
		return Answer{}, ErrUpstreamFailed
	}
	// The handler's answer is the frontend's now (simnet.DNSHandler), and
	// dead once packed and, on the path that caches, inserted.
	defer resp.Release()
	if resp.RCode == dnswire.RCodeServFail {
		// A struggling recursor over a healthy transport: RFC 8767
		// prefers a stale answer over a fresh SERVFAIL. Either way a
		// SERVFAIL is not evidence of health, so any armed cooldown
		// stays armed (it neither clears nor extends).
		if stale {
			if ans, ok := f.serveStale(key, q, dst, tr, "servfail"); ok {
				f.upstreamFail.Add(1)
				return ans, nil
			}
		}
		if tr != nil {
			tr.Add("upstream", 0, 0, obs.L("rcode", "SERVFAIL"))
		}
		return packAnswerAppend(resp, dst)
	}
	f.noteHandlerSuccess()
	// The one encode of a miss: the envelope's reply buffer takes it, and
	// the cache stores a copy of those bytes.
	ans, err := packAnswerAppend(resp, dst)
	if err != nil {
		return ans, err
	}
	if f.Cache != nil {
		f.Cache.insert(key, resp, ans.Wire)
		if tr != nil {
			tr.Add("cache.put", 0, 0)
		}
	}
	if tr != nil {
		tr.Add("upstream", 0, 0, obs.L("rcode", resp.RCode.String()))
	}
	return ans, nil
}

// handle asks the handler for q's answer. A reply with another ID or
// question, or a truncated one, is no answer: it is released and reported
// as the hard failure of none, so nothing from it is cached or served.
func (f *Frontend) handle(q *dnswire.Message) *dnswire.Message {
	resp := f.Handler.HandleDNS(q)
	if resp != nil && (resp.Truncated || !resp.Answers(q)) {
		resp.Release()
		return nil
	}
	return resp
}

// serveStale materializes the stale body for q, marked so stubs can
// count it, and records why it was served: a stale.serve span onto tr and
// a frontend.stale event. ok is false when the entry vanished since the
// probe (LRU pressure).
func (f *Frontend) serveStale(key Key, q *dnswire.Message, dst []byte, tr *obs.Trace, reason string) (Answer, bool) {
	body, ok := f.Cache.staleWire(key, q.ID, dst)
	if !ok {
		return Answer{}, false
	}
	echoFlags(body, q)
	f.staleServed.Add(1)
	if tr != nil {
		tr.Add("stale.serve", 0, 0, obs.L("reason", reason))
	}
	if f.Recorder != nil {
		f.Recorder.Emit("frontend.stale", obs.L("reason", reason))
	}
	return Answer{Wire: body, Stale: true}, true
}

// echoFlags copies into a cached reply the header bit a reply echoes from
// its query besides the ID and opcode (dnswire.Message.Reply): RD. Whoever's
// query filled the entry, each asker reads its own. The opcode needs no
// patch: only QUERY's 0 reaches the cache.
func echoFlags(wire []byte, q *dnswire.Message) {
	wire[2] &^= 1
	if q.RecursionDesired {
		wire[2] |= 1
	}
}

// prefetch refreshes an entry nearing expiry: the hit that armed it was
// already served from cache, so the refresh rides the same exchange
// (synchronous on the virtual clock — deterministic, no goroutine races)
// and renews the entry before it ever goes stale.
func (f *Frontend) prefetch(key Key, q *dnswire.Message) {
	resp := f.handle(q)
	if resp == nil {
		f.noteHandlerFailure()
		return
	}
	defer resp.Release()
	if resp.RCode == dnswire.RCodeServFail {
		return
	}
	f.noteHandlerSuccess()
	f.prefetches.Add(1)
	if f.Recorder != nil {
		f.Recorder.Emit("cache.prefetch", obs.L("frontend", f.Name))
	}
	f.Cache.Put(key, resp)
}

// packAnswerAppend packs a DNS message into dst (nil dst allocates);
// packing failures surface as an upstream failure so the stub fails over
// rather than mis-parsing.
func packAnswerAppend(m *dnswire.Message, dst []byte) (Answer, error) {
	base := len(dst)
	wire, err := m.AppendPack(dst)
	if err != nil {
		return Answer{}, ErrUpstreamFailed
	}
	return Answer{Wire: wire[base:]}, nil
}

// servFailWire synthesizes a packed SERVFAIL reply to q — what a DoT or
// DoQ frontend puts on the wire when its handler hard-fails (those
// envelopes have no out-of-band status channel like DoH's 502).
func servFailWire(q *dnswire.Message) []byte {
	resp := q.Reply()
	defer resp.Release()
	resp.RCode = dnswire.RCodeServFail
	wire, err := resp.Pack()
	if err != nil {
		return nil
	}
	return wire
}
