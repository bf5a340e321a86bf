// Package transport implements the multi-protocol encrypted-DNS serving
// layer between stub and recursor that the paper's measurements traverse
// in the real Internet: Google (8.8.8.8) and Cloudflare (1.1.1.1) expose
// their recursive fleets behind anycast frontends speaking DoH, DoT, and
// DoQ, and every §4.3.5/§4.4.2 staleness and failover effect the paper
// reports happens inside that layer. Real-world stubs are multi-protocol
// (dnscrypt-proxy routes one query path over DoH/DoT/DNSCrypt), so
// transport-sensitive scenarios — browser DoH settings, fallback races,
// per-protocol latency — need the envelope split from the serving
// machinery, not a per-protocol copy of it.
//
// The package therefore splits into one protocol-independent frontend
// and three thin envelope sessions it hands out:
//
//   - Frontend (frontend.go): the service a fleet registers at each
//     address — answer-cache lifecycle (probe → prefetch → serve-stale),
//     upstream failure cooldown, and lifecycle counters. Its Proto field
//     picks the envelope, and its one dial opens the matching session.
//   - DoH (doh.go): the RFC 8484 envelope: one GET per query, its "dns"
//     parameter in and an HTTP-style status, the answer wire and the
//     serve-stale marker out (400 for a parameter that does not decode,
//     502 for upstream failure).
//   - DoT (dot.go): the RFC 7858 envelope: a persistent connection on
//     which each exchange is one whole 2-byte length-prefixed frame and
//     the one frame that answers it, concurrent exchanges independent of
//     each other; a bad frame or a dead address kills the connection (and
//     the client fails over).
//   - DoQ (doq.go): the RFC 9250 envelope: one stream per query over a
//     session, the same framing, message ID pinned to 0 on the wire,
//     stream errors isolated from the session; fresh sessions pay a
//     handshake RTT, resumed ones ride 0-RTT.
//   - Frames (frame.go): every envelope's server half — one pooled
//     frameStream per exchange holds the decoded query, the buffer a DoH
//     parameter decodes into and the answer wire. DoT and DoQ also share
//     packFrame on the client, and on the server read one frame and
//     answer it through Resolve (a hard upstream failure becomes a
//     synthesized SERVFAIL); DoH decodes its parameter and answers with a
//     status.
//   - Cache: the sharded TTL+LRU answer cache shared across frontends
//     regardless of protocol (the anycast-pod property).
//   - Pool and Client: the load-balanced upstream set (P2 or round-robin
//     Balance, failover that benches a failed member for DefaultCooldown
//     of virtual time and never removes it, a per-member EWMA RTT) and
//     the protocol-agnostic stub that sends each attempt through the
//     member's session — a mixed fleet races and fails over across
//     protocols. The client's Strategy (a StrategyConfig) decides, over
//     the pool's candidate ordering, which candidates are attempted, in
//     what simulated overlap, and whose answer wins (see below).
//   - Fleet: the bundle — one cache, one pool, one client, any Mix of
//     frontends — with one registry holding every counter, plus
//     fleet-wide and strategy views.
//
// # Cache lifecycle
//
// Every cache entry — positive or negative — walks one state machine,
// evaluated lazily on the virtual clock at probe time, identically for
// all three protocols:
//
//	          Put                      TTL expires              TTL + StaleWindow
//	(answer) ─────▶ FRESH ────────────────▶ STALE ────────────────────▶ evicted
//	                  │                       │                     (or LRU victim
//	                  │ RefreshAhead·TTL      │ upstream fails           any time)
//	                  ▼ elapsed               ▼ or in cooldown
//	            prefetch armed:         served with TTLs capped
//	            next hit refreshes      at DefaultStaleTTL
//	            the entry upstream      (RFC 8767, stale-marked)
//
// FRESH (within TTL): served directly, TTLs aged by elapsed virtual time.
// Once RefreshAhead of the TTL has elapsed, the first hit past the
// threshold additionally arms a prefetch: the frontend refreshes the
// entry from its handler on the same exchange, so hot names are renewed
// before they ever go stale (at most one prefetch per entry generation).
//
// STALE (past TTL, within StaleWindow): not served on the happy path —
// the upstream is consulted first. Only when the handler hard-fails
// (nil), SERVFAILs, or is benched in FailureCooldown does the frontend
// serve the stale body, with every record TTL capped at DefaultStaleTTL
// (30 s) and the answer stale-marked (RFC 8767 serve-stale) — a DoH
// envelope flag, or DoT/DoQ frame metadata standing in for the RFC 8914
// "Stale Answer" extended error.
//
// Evicted: past TTL + StaleWindow an entry is dropped at probe time; LRU
// eviction under capacity pressure can remove any entry earlier.
//
// Positive and negative entries differ only in how their TTL is derived
// and in accounting: negative answers (NXDOMAIN, or NOERROR with an empty
// answer section — NODATA) are retained for the RFC 2308 negative TTL,
// min(SOA TTL, SOA minimum) capped by DefaultMaxNegativeTTL (3 h), so
// repeated misses during census scans stop hammering upstreams; hits on
// them are counted as the frontend's NegativeHits. The cache itself
// counts only what it owns — residents, evictions, expirations — and the
// frontend that probed it counts every hit, stale serve and prefetch,
// so each serving event is counted once. With StaleWindow zero (the
// default) the STALE state vanishes and entries die at TTL expiry.
//
// # Resolution strategies
//
// Client.Exchange is candidate selection plus one resolver: the Pool
// orders the members (its Balance policy picks the head, healthy members
// follow, benched members last) and counts the healthy head, under one
// lock, and the client's resolve switches on Strategy.Kind to drive
// attempts over that ordering. Two kinds exist:
//
//   - StrategySerial (the zero value): one candidate at a time, first
//     usable answer wins, SERVFAIL returned only when every member
//     agrees.
//   - StrategyRace: happy-eyeballs protocol racing (the Firefox/Chrome
//     DoH fallback shape, RFC 8305's connection-attempt delay). The
//     primary gets a 5 ms head start; if its answer has not arrived when
//     the timer fires, the first healthy candidate on a *different*
//     protocol (else the second healthy one) launches too — read off the
//     ordering's healthy head, so a benched primary races nothing — and
//     the earlier
//     virtual completion wins. The loser is cancelled and accounted as
//     wasted upstream load; if both fail, the exchange falls through to
//     the remaining candidates serially.
//
// Every path runs on the virtual clock under the determinism contract
// on resolve: dials execute synchronously, overlap is simulated by
// comparing launch offset + attempt cost (the latency-model RTT plus
// connection-setup round-trips), and no goroutine, wall-clock read or
// private randomness enters: the client's Latency model is the only clock
// an attempt reads. Completed attempts feed the pool's EWMA
// whether they win or lose (the sample is real);
// the virtual clock is charged once per exchange with the critical
// path, not the attempt sum. This is what keeps pipelined multi-day
// campaigns byte-identical to serial runs under either strategy — and
// why campaign serving snapshots count per-exchange winners rather than
// per-attempt frontend events.
//
// # Hot path and the aliasing contract
//
// Each operation on the query path has exactly one entry point, and that
// entry point takes its result storage from the caller:
//
//	session.Exchange(q, into, tr)      Frontend.exchangeDoH(st, param, tr)
//	Frontend.Resolve(q, dst, tr)       Cache.probe(key, id, dst)
//	Pool.candidates(dst, pref)         Cache.staleWire(key, id, dst)
//
// into receives the decoded answer; st is the exchange's pooled server
// scratch (the frameStream every envelope serves from), whose buffers the
// DoH parameter decodes into and the answer wire lands in; dst is
// append-style scratch, where nil simply allocates (the client hands
// candidates an 8-member array on its stack); tr is the exchange's trace,
// where nil traces nothing; pref is a protocol preference, where ProtoAny
// means none. There are no
// allocating or untraced twins — a one-shot caller passes a fresh
// Message and nils.
//
// tr is non-nil only for the exchanges Client.Tracer head-samples, and
// every span site sits behind an `if tr != nil`. Anomaly (tail)
// retention needs no trace: the client derives each exchange's anomaly
// flags from the exchange's outcome and the winner's RCode and reports
// them, with the virtual cost, to Tracer.Finish, so an unsampled
// exchange records no span and pays nothing for the anomaly tier unless
// it is itself the anomaly.
//
// With callers recycling those arguments the hot path is allocation-free
// by construction, on a miss as on a hit: the candidate ordering lives on
// the client's stack, and the rest of the per-exchange state (one
// frameStream pool for all three envelopes' server scratch, the client's
// query wire buffers, decoded answer Messages) lives in sync.Pools, wire
// encoding appends into recycled buffers via the
// dnswire reuse APIs, a miss encodes its answer once (Resolve packs into
// dst and the cache stores a copy in the entry it evicts or replaces, or
// in a buffer carved from the cache's arena when a shard grows),
// and cache keys are interned structs rather than formatted strings.
// Answer Messages are pooled per question type (HTTPS, A, AAAA, SOA, NS
// and one pool for the rest), so a decode lands on RDATA values of its
// own shape, and the dial seeds the message's question slot with the
// query's question, so the decoded question and every owner spelled the
// same way share the query's name string.
// Every pool put-site runs its buffer through dnswire's recycling
// ceiling (dnswire.TrimRecycled) so a jumbo answer cannot pin its backing array for a
// campaign. Pooling never feeds an RNG or an ordering decision — buffer
// identity is invisible to the determinism contract above.
//
// The aliasing rules that make copy-free serving safe:
//
//   - An Answer's Wire (and a lookup's Body) aliases the dst the caller
//     handed in: it is valid until the caller reuses that buffer, so
//     envelope sessions decode or hand off the body before recycling
//     their scratch, and treat served bodies as read-only.
//   - The cache copies the wire it is given (Resolve's packed answer, or
//     Put's own pack of a message) into the entry's one buffer, its TTL
//     slots behind it; a served body is only ever the wire part. An
//     entry's bytes change only under its shard lock, when a replace or
//     an eviction reuses its buffer.
//   - A Message returned by Client.Exchange is owned by the caller, who
//     may give it back with Client.Recycle once it has copied out every
//     value it wants: the message and everything reachable from it —
//     sections, RDATA values, their byte slices — is then gone, reclaimed
//     for a later exchange's decode (the scanner does this at every read
//     site). Once per message, and only if no part of it was handed to
//     someone who keeps it.
//   - SetReuseAnswers says the same implicitly: the returned message is
//     valid only until that client's next exchange, which reclaims it —
//     safe only for a serial sole-driver caller, like the workload engine
//     and the benchmark harness, which flip it on through SetReuseAnswers
//     for the duration of a run. Both feed the pool the message's own
//     question type names; Recycle drops the pending claim, so a message
//     given back explicitly is not pooled again.
//   - The resolver recycles losing attempts' Messages (Client.discard) —
//     exactly for attempts whose answer can no longer escape the
//     exchange (raced losers, superseded parked SERVFAILs);
//     winners are never discarded.
//   - Only the client's own decodes enter the pool, never a handler's
//     message: its records may be the very values the handler serves
//     next (core.TestServedRecordsStayReadOnly).
//   - A handler's message goes home another way: it is the frontend's
//     once HandleDNS returns (simnet.DNSHandler), and Resolve, prefetch
//     and servFailWire Release it, like their own FORMERR, NOTIMP and SERVFAIL
//     replies, once packed and, where cached, inserted.
//
// # What the envelopes do differently
//
// The client reaches every member through one table of sessions, one per
// member dialed. A Frontend's dial switches on its Proto and opens a
// session, whose Exchange(q, into, tr) is the attempt (a DoT connection,
// a DoQ session, or a DoH GET session):
//
//	envelope  setup RTTs                   session dies on          a bad query costs
//	DoH       0                            address down             a 400 (benched)
//	DoT       2 (TCP, TLS)                 address down, bad frame  the connection
//	DoQ       1 (handshake), 0 if resumed  address down             its stream
//
// A DoQ member dialed before resumes with 0-RTT on its ticket. Lookup and
// dial run under the client lock, so attempts that miss together share
// one dial, and a dead session is dropped only while the table still
// holds it. A dead session or a failed dial (address down, or a service
// of another protocol: ErrNotProto) benches the member and costs nothing;
// the next attempt redials and pays the setup again. A DoQ stream reset
// kills only its stream, and benches nothing.
//
// Upstream hard failure with nothing stale: DoH answers 502, which costs
// its round-trip and is not benched (any other status is); DoT and DoQ
// synthesize a SERVFAIL message — those wire formats have no status
// channel — which the client likewise treats as try-the-next-member.
// Setup costs reach the virtual clock when ChargeLatency is on.
package transport
