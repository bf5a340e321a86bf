// Package dataset holds the measurement campaign's collected data: daily
// snapshots of per-domain DNS observations (compact summaries, not raw
// messages), name-server observations with WHOIS attribution, hourly ECH
// observations, TLS connectivity probe results, serving-layer lifecycle
// snapshots, campaign telemetry series, and the one-shot DNSSEC
// validation census — the in-memory equivalent of the paper's Table 1
// datasets, with JSON export.
//
// # One lock, commit order
//
// Store keeps its per-day tables (apex/www/NS snapshots, serving and
// anomaly records, Tranco lists, telemetry series) in maps
// keyed by UTC day and its three append tables (ECH observations,
// connectivity probes, validation rows) in chunks that are never regrown,
// all behind one sync.RWMutex. WriteJSON encodes under the read lock, a
// table (an append table, a chunk) at a time, so an export never holds the
// whole document. The store is safe for concurrent use, but every
// campaign writer is a single goroutine — the pipeline's in-order
// committer — so the lock is never contended on the measurement path.
//
// # Determinism contract
//
// The byte-identical store contract the campaign pipeline relies on —
// serial and pipelined runs produce identical WriteJSON bytes — follows
// from commit order alone: the append tables are read back in the order
// they were written (one Add call's records always contiguous), and the
// keyed tables are rendered in sorted-key order. As long as records are
// committed in the same order (the pipeline's ordered committer
// guarantees that), the export is the same. The concurrent-append tests
// under -race cover the locking.
//
// # Shared values
//
// The slices a stored observation holds — A, AAAA, NS, CNAMEChain, HTTPS,
// and each HTTPSRecord's ALPN, V4Hints and V6Hints — are shared: the
// scanner interns them by content, so observations of one value, on any
// day, hold the same backing array (while the value's table has room). They are read-only. A reader that
// wants to sort, trim or append to one copies it first. Observation.V4Hints
// and V6Hints follow the same rule: with at most one record carrying hints
// they return that record's slice itself. The append tables' reads
// (ECHObservations, Probes, Validation) are copies, the caller's to
// change.
package dataset
