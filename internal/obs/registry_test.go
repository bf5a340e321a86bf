package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

func testClock() *simnet.Clock {
	return simnet.NewClock(time.Date(2023, 7, 1, 12, 0, 0, 0, time.UTC))
}

// counter registers a fresh counter handle on r, the way a hot-path
// owner registers the counter it embeds.
func counter(r *Registry, name string, labels ...Label) *Counter {
	c := &Counter{}
	r.RegisterCounter(c, name, labels...)
	return c
}

// histogram registers a fresh histogram handle on r.
func histogram(r *Registry, name string, bounds ...time.Duration) *Histogram {
	h := NewHistogram(bounds...)
	r.RegisterHistogram(h, name)
	return h
}

// gauge registers a view reporting *v as a gauge at snapshot time.
func gauge(r *Registry, name string, v *float64) {
	r.RegisterView(func(add ViewAdd) { add(name, KindGauge, *v) })
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := Ratio(5, 0); got != 0 {
		t.Fatalf("Ratio(5, 0) = %v, want 0", got)
	}
	if got := Ratio(1, 4); got != 0.25 {
		t.Fatalf("Ratio(1, 4) = %v, want 0.25", got)
	}
}

func TestCounterGaugeSnapshot(t *testing.T) {
	r := NewRegistry(testClock())
	c := counter(r, "requests_total", L("proto", "doh"))
	c.Add(3)
	c.Inc()
	healthy := 7.0
	gauge(r, "pool_healthy", &healthy)

	snap := r.Snapshot()
	if v := snap.Value("requests_total", L("proto", "doh")); v != 4 {
		t.Fatalf("requests_total = %v, want 4", v)
	}
	if m, _ := snap.Get("pool_healthy"); m.Value != 7 || m.Kind != KindGauge {
		t.Fatalf("pool_healthy = %+v, want a gauge reading 7", m)
	}
	// Registering the same key again replaces the handle.
	var other Counter
	other.Add(2)
	r.RegisterCounter(&other, "requests_total", L("proto", "doh"))
	if v := r.Snapshot().Value("requests_total", L("proto", "doh")); v != 2 {
		t.Fatalf("re-registered requests_total = %v, want 2", v)
	}
}

func TestRegisterView(t *testing.T) {
	r := NewRegistry(nil)
	r.RegisterView(func(add ViewAdd) {
		add("cache_hits_total", KindCounter, 10)
		add("cache_entries", KindGauge, 4, L("shard", "0"))
	})
	snap := r.Snapshot()
	if v := snap.Value("cache_hits_total"); v != 10 {
		t.Fatalf("cache_hits_total = %v, want 10", v)
	}
	if v := snap.Value("cache_entries", L("shard", "0")); v != 4 {
		t.Fatalf("cache_entries = %v, want 4", v)
	}
}

func TestStableSnapshotExcludesVolatile(t *testing.T) {
	r := NewRegistry(nil)
	counter(r, "stable_total").Add(1)
	counter(r, "noisy_total", L("member", "a")).Add(9)
	r.SetVolatile("noisy_total")
	snap := r.StableSnapshot()
	if _, ok := snap.Get("noisy_total", L("member", "a")); ok {
		t.Fatal("StableSnapshot kept a volatile metric")
	}
	if v := snap.Value("stable_total"); v != 1 {
		t.Fatalf("stable_total = %v, want 1", v)
	}
	if _, ok := r.Snapshot().Get("noisy_total", L("member", "a")); !ok {
		t.Fatal("full Snapshot dropped a volatile metric")
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation at
// exactly a bucket's upper bound counts in that bucket, and over-range
// observations land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(time.Millisecond)       // exactly the first bound → bucket le=0.001
	h.Observe(time.Millisecond + 1)   // just past → second bucket
	h.Observe(10 * time.Millisecond)  // exactly the second bound → second bucket
	h.Observe(500 * time.Millisecond) // over-range → +Inf
	h.Observe(time.Hour)              // far over-range → +Inf
	count, sumSec, buckets := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	want := time.Millisecond + time.Millisecond + 1 + 10*time.Millisecond + 500*time.Millisecond + time.Hour
	if sumSec != want.Seconds() {
		t.Fatalf("sum = %v, want %v", sumSec, want.Seconds())
	}
	if len(buckets) != 3 {
		t.Fatalf("bucket count = %d, want 3", len(buckets))
	}
	// Cumulative counts: 1 at le=0.001, 3 at le=0.01, 5 at +Inf.
	for i, wantN := range []uint64{1, 3, 5} {
		if buckets[i].Count != wantN {
			t.Fatalf("bucket[%d] (le=%v) = %d, want %d", i, buckets[i].LE, buckets[i].Count, wantN)
		}
	}
	if buckets[0].LE != 0.001 || !math.IsInf(buckets[2].LE, 1) {
		t.Fatalf("bucket bounds = %v, %v; want 0.001 and +Inf", buckets[0].LE, buckets[2].LE)
	}
}

// TestSnapshotGetBinarySearch exercises Get's binary search over a
// registry large enough that every probe position matters: first, last,
// every middle key, a labeled sibling, and misses on both ends.
func TestSnapshotGetBinarySearch(t *testing.T) {
	r := NewRegistry(nil)
	for i := 0; i < 50; i++ {
		counter(r, fmt.Sprintf("m%02d_total", i)).Add(uint64(i + 1))
	}
	counter(r, "m25_total", L("proto", "doh")).Add(7)
	snap := r.Snapshot()
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("m%02d_total", i)
		if v := snap.Value(name); v != float64(i+1) {
			t.Fatalf("%s = %v, want %d", name, v, i+1)
		}
	}
	if v := snap.Value("m25_total", L("proto", "doh")); v != 7 {
		t.Fatalf("labeled sibling = %v, want 7", v)
	}
	for _, miss := range []string{"", "a_total", "m25_totalx", "zzz_total"} {
		if _, ok := snap.Get(miss); ok {
			t.Fatalf("Get(%q) reported a hit", miss)
		}
	}
}

// TestSnapshotSubNewMetricMidDrill pins Sub's behavior for a metric that
// first appears after the baseline snapshot: it passes through
// unchanged (absent from base means nothing to subtract).
func TestSnapshotSubNewMetricMidDrill(t *testing.T) {
	r := NewRegistry(nil)
	old := counter(r, "old_total")
	old.Add(3)
	base := r.Snapshot()
	old.Add(2)
	counter(r, "new_total").Add(9)
	histogram(r, "new_latency_seconds", time.Millisecond).Observe(2 * time.Millisecond)
	diff := r.Snapshot().Sub(base)
	if v := diff.Value("old_total"); v != 2 {
		t.Fatalf("old_total delta = %v, want 2", v)
	}
	if v := diff.Value("new_total"); v != 9 {
		t.Fatalf("mid-drill counter delta = %v, want 9 (pass through)", v)
	}
	m, ok := diff.Get("new_latency_seconds")
	if !ok || m.Count != 1 {
		t.Fatalf("mid-drill histogram = %+v, want count 1", m)
	}
	// Cumulative shape intact: the +Inf bucket still counts everything.
	if last := m.Buckets[len(m.Buckets)-1]; !math.IsInf(last.LE, 1) || last.Count != 1 {
		t.Fatalf("mid-drill histogram +Inf bucket = %+v", last)
	}
}

// TestSnapshotSubBucketAbsentFromBase pins Sub for a histogram bucket
// present in cur but absent from base (snapshots merged from different
// bucket ladders): the unmatched bucket subtracts zero.
func TestSnapshotSubBucketAbsentFromBase(t *testing.T) {
	inf := math.Inf(1)
	base := &Snapshot{Metrics: []Metric{{
		Name: "lat_seconds", Kind: KindHistogram, Count: 2, Sum: 0.002,
		Buckets: []Bucket{{LE: 0.001, Count: 2}, {LE: inf, Count: 2}},
	}}}
	cur := &Snapshot{Metrics: []Metric{{
		Name: "lat_seconds", Kind: KindHistogram, Count: 5, Sum: 0.025,
		Buckets: []Bucket{{LE: 0.001, Count: 3}, {LE: 0.01, Count: 5}, {LE: inf, Count: 5}},
	}}}
	diff := cur.Sub(base)
	m, ok := diff.Get("lat_seconds")
	if !ok {
		t.Fatal("histogram missing from diff")
	}
	if m.Count != 3 {
		t.Fatalf("count delta = %d, want 3", m.Count)
	}
	want := []Bucket{{LE: 0.001, Count: 1}, {LE: 0.01, Count: 5}, {LE: inf, Count: 3}}
	if !reflect.DeepEqual(m.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", m.Buckets, want)
	}
}

// TestHistogramQuantileBoundaries pins Metric.Quantile against exact
// bucket-boundary ranks, the +Inf clamp, an empty histogram and q
// outside (0, 1].
func TestHistogramQuantileBoundaries(t *testing.T) {
	r := NewRegistry(nil)
	h := histogram(r, "lat_seconds", time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	quantile := func(q float64) time.Duration {
		m, ok := r.Snapshot().Get("lat_seconds")
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		return m.Quantile(q)
	}
	if got := quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// Two observations per bucket: cum = 2 at 1ms, 4 at 10ms.
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(10 * time.Millisecond)
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.25, time.Millisecond},      // rank 1
		{0.5, time.Millisecond},       // rank 2 — exactly the first bucket's cumulative edge
		{0.51, 10 * time.Millisecond}, // rank 3 — one past the edge
		{1, 10 * time.Millisecond},
		{1.5, 10 * time.Millisecond}, // clamped to q=1
		{0, 0},                       // q ≤ 0 reports 0
		{-1, 0},
	}
	for _, c := range cases {
		if got := quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Over-range mass: ranks landing in +Inf clamp to the last finite
	// bound.
	h.Observe(5 * time.Second)
	if got := quantile(1); got != 100*time.Millisecond {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 100ms", got)
	}
	if got := quantile(0.4); got != time.Millisecond {
		t.Fatalf("Quantile(0.4) = %v, want 1ms", got)
	}
	var zero Metric
	if got := zero.Quantile(0.99); got != 0 {
		t.Fatalf("zero Metric.Quantile = %v, want 0", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry(nil)
	c := counter(r, "served_total")
	healthy := 4.0
	gauge(r, "healthy", &healthy)
	c.Add(10)
	base := r.Snapshot()
	c.Add(5)
	healthy = 3
	diff := r.Snapshot().Sub(base)
	if v := diff.Value("served_total"); v != 5 {
		t.Fatalf("diff counter = %v, want 5", v)
	}
	// Gauges are levels: Sub keeps the current reading.
	if v := diff.Value("healthy"); v != 3 {
		t.Fatalf("diff gauge = %v, want 3", v)
	}
}

// TestMergeShuffledDeterminism pins the commit-order contract's other
// half: merging child-registry snapshots is independent of merge order.
func TestMergeShuffledDeterminism(t *testing.T) {
	mkChild := func(i int) *Snapshot {
		r := NewRegistry(nil)
		counter(r, "exchanges_total").Add(uint64(10 * (i + 1)))
		counter(r, "stale_total", L("proto", "doh")).Add(uint64(i))
		histogram(r, "latency_seconds").Observe(time.Duration(i+1) * 5 * time.Millisecond)
		healthy := float64(i + 1)
		gauge(r, "healthy", &healthy)
		return r.Snapshot()
	}
	children := []*Snapshot{mkChild(0), mkChild(1), mkChild(2), mkChild(3)}

	ref := MergeSnapshots(children...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]*Snapshot(nil), children...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := MergeSnapshots(shuffled...); !reflect.DeepEqual(ref, got) {
			t.Fatalf("trial %d: shuffled merge diverged:\n%+v\nvs\n%+v", trial, ref, got)
		}
	}
	if v := ref.Value("exchanges_total"); v != 10+20+30+40 {
		t.Fatalf("merged exchanges_total = %v, want 100", v)
	}
	if v := ref.Value("healthy"); v != 1+2+3+4 {
		t.Fatalf("merged healthy = %v, want 10 (additive gauge merge)", v)
	}
	m, ok := ref.Get("latency_seconds")
	if !ok || m.Count != 4 {
		t.Fatalf("merged histogram count = %d, want 4", m.Count)
	}
}

func TestSamplerForce(t *testing.T) {
	clock := testClock()
	r := NewRegistry(clock)
	c := counter(r, "ticks_total")
	counter(r, "noisy_total").Add(3)
	r.SetVolatile("noisy_total")
	s := NewSampler(r, clock, true)

	c.Inc()
	s.Force("apex")
	clock.Advance(time.Hour)
	c.Inc()
	s.Force("www")
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Label != "apex" || pts[1].Label != "www" {
		t.Fatalf("labels = %q, %q", pts[0].Label, pts[1].Label)
	}
	if !pts[1].At.Equal(pts[0].At.Add(time.Hour)) {
		t.Fatalf("stamps %v, %v: want one virtual hour apart", pts[0].At, pts[1].At)
	}
	for i, want := range []float64{1, 2} {
		if v := pts[i].Snap.Value("ticks_total"); v != want {
			t.Fatalf("point %d ticks_total = %v, want %v", i, v, want)
		}
	}
	// A stable-only sampler drops volatile metrics.
	if _, ok := pts[0].Snap.Get("noisy_total"); ok {
		t.Fatal("stable sampler kept a volatile metric")
	}
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	s.Force("x")
	if pts := s.Points(); pts != nil {
		t.Fatalf("nil sampler points = %v", pts)
	}
}
