package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets is the fixed bucket ladder for exchange-latency
// histograms, spanning the simulation's synthetic RTT band (2–20ms base,
// 4× tails, plus connection-setup multiples) with headroom.
func DefaultLatencyBuckets() []time.Duration {
	return []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 1 * time.Second,
	}
}

// Histogram is a fixed-bucket duration histogram with lock-free
// observation. Bucket semantics follow Prometheus: an observation lands
// in the first bucket whose upper bound is ≥ the value; over-range
// observations land in the implicit +Inf bucket.
type Histogram struct {
	bounds []time.Duration // sorted ascending; +Inf implicit at the end

	counts []atomic.Uint64 // per-bucket (non-cumulative), len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given bucket bounds (sorted
// and deduplicated; empty bounds select DefaultLatencyBuckets).
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	bs := append([]time.Duration(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	h := &Histogram{bounds: dedup}
	h.counts = make([]atomic.Uint64, len(dedup)+1)
	return h
}

// Observe records one duration in the first bucket whose bound is ≥ d,
// or the +Inf bucket past the last bound.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of a snapshotted
// histogram metric as the upper bound of the bucket holding the target
// cumulative rank — the resolution a fixed-bucket histogram can honestly
// offer, and the only form drill deltas (Snapshot.Sub) exist in. The
// rank is ceil(q·count), so an observation exactly at a bucket boundary
// resolves to that bucket's bound, matching Observe's le-inclusive
// placement. Ranks landing in the +Inf bucket clamp to the last finite
// bound; non-histogram or empty metrics report 0.
func (m Metric) Quantile(q float64) time.Duration {
	if m.Count == 0 || q <= 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(min(q, 1)*float64(m.Count))), 1)
	var lastFinite time.Duration
	for _, b := range m.Buckets {
		if !math.IsInf(b.LE, 1) {
			lastFinite = time.Duration(b.LE * float64(time.Second))
		}
		if b.Count >= rank {
			break
		}
	}
	return lastFinite
}

// snapshot renders the histogram's cumulative buckets for a Snapshot.
func (h *Histogram) snapshot() (count uint64, sumSec float64, buckets []Bucket) {
	buckets = make([]Bucket, len(h.bounds)+1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i].Seconds()
		}
		buckets[i] = Bucket{LE: le, Count: cum}
	}
	return h.count.Load(), time.Duration(h.sum.Load()).Seconds(), buckets
}
