// Package obs is the deterministic telemetry subsystem: a metrics
// registry (counters, gauges, fixed-bucket latency histograms keyed by
// name + label set), per-exchange query tracing, and a time-series
// sampler — all native to the simulation's virtual clock.
//
// A metric enters a Registry one way or the other: as a hot-path handle
// its owner registers (RegisterCounter, RegisterHistogram), or as a
// snapshot-time view (RegisterView). It leaves only as a *Snapshot, read
// with Get, Value, Sub, MergeSnapshots and Metric.Quantile.
//
// # Determinism contract
//
// Nothing in this package reads the wall clock. Every timestamp — a
// snapshot's At, a trace's Start, a sampler's point — comes from an
// injected Clock (simnet.Clock in practice), and every duration on a
// trace span is a virtual-timeline quantity (launch offset + attempt
// cost) computed by the strategy layer, never measured. Snapshots are
// stable too: they sort metrics by (name, labels), so equal registries
// give equal snapshots.
//
// Pipelined campaigns stay byte-identical to serial runs because
// telemetry follows the same two rules the dataset layer already
// enforces:
//
//   - Merge in commit order. Per-day scan contexts carry their own child
//     registry; its sampled points ride the day's result through the
//     in-order committer, so the assembled series never observes worker
//     scheduling. Snapshot merging itself (MergeSnapshots) is
//     argument-order-independent: each key's contributions are folded in
//     a sorted order (float addition is not associative) and the output
//     is sorted, which the shuffled-merge test pins.
//
//   - Sample only schedule-independent metrics into series. Counters
//     whose value depends on which attempt ran where (per-frontend
//     served counts, per-member pool traffic, race fire counts,
//     cache probe totals) vary with scanner-worker interleaving even for
//     a fixed seed; registries mark them volatile (Registry.SetVolatile)
//     and StableSnapshot excludes them. What remains — per-exchange
//     winner-side counters, prefetches, upstream failures, pool health —
//     is a pure function of the day's scan, the same subset
//     dataset.ServingSnapshot records. Full Snapshots still expose
//     everything for live tooling (cmd/dohserve), where single-driver
//     loops make the whole registry deterministic.
//
// Trace sampling comes in two retention policies. Head sampling is
// counter-driven (every Nth exchange), never random, so a
// single-goroutine drive samples the identical exchanges run over run —
// but WHICH exchanges land on the every-Nth grid depends on arrival
// order, so under concurrent drivers the head ring's contents are
// schedule-dependent (cmd/dohserve drives from one goroutine for this).
// Tail sampling (TraceConfig.Tail) traces nothing extra: Finish is told
// each exchange's outcome by its owner — the TraceFlags (error, SERVFAIL,
// stale-served, failover, race) and the virtual cost, all known
// once the exchange is over — and keeps the ones matching a deterministic
// anomaly predicate (any flag set), ranked into a
// bounded top-K ring by (cost, name, flags): properties of the exchange
// itself, not of scheduling, so the retained set is stable under
// concurrent drivers wherever per-exchange outcomes are. An exchange head
// sampling skipped has no Trace; if it ranks into the ring it is kept as
// a span-less record, and otherwise costs no allocation. SampleEvery 0
// keeps no head ring at all — a tail-only tracer, what campaign day
// contexts carry — and sampling every exchange (SampleEvery 1) with Tail
// set retains anomalies with their span trees.
//
// The flight recorder (Recorder) is a live ring only: a bounded,
// arrival-ordered timeline of typed events (Window) for single-driver
// drills such as cmd/dohserve's summary; overflow
// (Recorder.Dropped() > 0) truncates it. It counts nothing. An event
// whose number a campaign stores is counted by a registry counter beside
// its emission site, so anomaly captures read the stable snapshot like
// every other committed record.
//
// SLO evaluation (SLO.Eval, and Burn over a base snapshot and a
// sampler's points) is a pure function of snapshots — winner-side
// counters and the latency histogram's quantiles — so it holds no state
// and inherits the contract: burn rates over stable
// snapshots are schedule-independent; the latency objective reads the
// (volatile) histogram and is therefore only evaluated on live
// single-driver registries, never in committed campaign records.
package obs
