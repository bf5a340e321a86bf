// Package workload simulates a stub-resolver population — up to
// millions of clients — driving an encrypted-DNS serving layer on the
// virtual clock.
//
// # Client model
//
// Each client is one 24-byte record — a splitmix64 RNG stream (a pure
// function of engine seed and client ID), the due time of its one
// pending arrival, its calendar link, and a protocol preference dealt by
// transport.Mix.Assign (the dnscrypt-proxy-style per-stub preference) —
// plus a direct-mapped stub cache of four (rank, expiry) pairs
// (stubSlots) in two flat arrays, 12 bytes a slot. BenchmarkEngine measures
// what New allocates: 73 bytes per client, the calendar's ring included.
// Every client queries HTTPS, the paper's record of interest. Query domains are drawn from a Zipf(s)
// popularity law over the ranked domain list via a Walker alias table —
// O(1) per draw. Arrivals follow an open loop: each client's queries
// are a Poisson process at OpenRate, whatever the serving layer answers
// or how long it takes.
//
// # Calendar queue
//
// Pending arrivals — exactly one per client — live in a calendar queue:
// a power-of-two ring of time buckets, each an intrusive singly linked
// list threaded through the client records. A bucket spans a power of
// two nanoseconds that holds eight to sixteen arrivals at the aggregate
// rate, and the ring at least two mean gaps, both derived from
// Clients and OpenRate. Activating a bucket copies
// its events out, sorted by (due, client); a push into the active bucket
// is merged into that sorted run; events a lap or more ahead stay in
// their slot until their lap comes round; a lap with nothing due jumps
// to the earliest pending arrival. Geometry changes only the cost, never
// the order, which is exactly a (due, client) min-heap's
// (TestCalendarMatchesReferenceHeap keeps the former sharded heap as the
// oracle). Per event the engine touches the client's record, which
// walking the bucket has already brought into cache, and its stub-cache
// slot. The hot loop reuses one query message (QNAME and ID patched in
// place; the serving stack never retains the caller's message) and
// charges the virtual clock in chargeQuantum steps instead of per event.
//
// # Determinism contract
//
// The engine is a pure function of (Config, clock start time, target):
// single-goroutine by construction, total event order fixed by the
// (due, client) tie-break, per-client RNG streams independent of firing
// order, and stub-cache TTLs fixed at StubTTL rather than taken from
// answer TTLs (answer TTLs depend on fleet-cache LRU residency, which
// is schedule-dependent whenever other drivers share the fleet). Two
// runs with the same inputs replay byte-identically; Summary.Digest — an
// FNV-1a fold of every processed (client, due, rank, outcome) tuple —
// pins this in tests.
package workload
