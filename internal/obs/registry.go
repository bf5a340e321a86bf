package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source a registry stamps snapshots with — a
// *simnet.Clock in practice. Wall-clock time never enters the subsystem.
type Clock interface {
	Now() time.Time
}

// Label is one name=value dimension of a metric or span.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Ratio divides num by den, reporting 0 for an empty denominator — the
// NaN/Inf guard every freshly-started fleet's hit-rate style helper
// needs.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use, so hot-path owners (Frontend, Client) embed counters as plain
// fields and pay one atomic add per event — registration into a Registry
// is only for snapshots.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Kind enumerates metric kinds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// entry is one registered hot-path handle: exactly one of counter and
// hist is set.
type entry struct {
	name    string
	labels  []Label
	counter *Counter
	hist    *Histogram
}

// ViewAdd is the callback a registered view reports metrics through at
// snapshot time.
type ViewAdd func(name string, kind Kind, value float64, labels ...Label)

// Registry is a catalog of metric sources. A metric enters it one of two
// ways: as a hot-path handle its owner registers (RegisterCounter,
// RegisterHistogram), or through a view (RegisterView: one snapshot-time
// callback adding many metrics from a single consistent stats read). It
// leaves only as a Snapshot. Hot paths never touch the registry — they
// hold *Counter/*Histogram handles directly; the registry is walked only
// by Snapshot.
type Registry struct {
	clock Clock

	mu       sync.Mutex
	entries  map[string]*entry
	views    []func(add ViewAdd)
	volatile map[string]bool
}

// NewRegistry creates an empty registry stamped by clock (nil clock
// leaves snapshot timestamps zero).
func NewRegistry(clock Clock) *Registry {
	return &Registry{clock: clock, entries: map[string]*entry{}, volatile: map[string]bool{}}
}

// metricKey renders the stable identity of (name, labels) as
// name{k1="v1",k2="v2"}: keys bare, values quoted as strconv.Quote does (the
// %q of fmt), labels sorted by key so registration order never matters.
// Labels of equal key keep their given order. Up to eight labels and a
// short key are sorted and rendered on the stack, so a key costs its one
// string.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var lbuf [8]Label
	ls := append(lbuf[:0], labels...)
	for i := 1; i < len(ls); i++ { // insertion sort: stable
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	var buf [128]byte
	b := append(append(buf[:0], name...), '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, l.Key...), '='), l.Value)
	}
	return string(append(b, '}'))
}

// register installs (or replaces) the entry for (name, labels).
func (r *Registry) register(e *entry) {
	r.mu.Lock()
	r.entries[metricKey(e.name, e.labels)] = e
	r.mu.Unlock()
}

// RegisterCounter registers a counter its owner embeds — how hot-path
// counters join the registry without an extra indirection on the
// increment path. Registering a key again replaces its entry.
func (r *Registry) RegisterCounter(c *Counter, name string, labels ...Label) {
	r.register(&entry{name: name, labels: labels, counter: c})
}

// RegisterHistogram registers a histogram its owner observes into.
func (r *Registry) RegisterHistogram(h *Histogram, name string, labels ...Label) {
	r.register(&entry{name: name, labels: labels, hist: h})
}

// RegisterView adds a snapshot-time callback that reports any number of
// metrics from one consistent stats read (e.g. one sharded-cache Stats()
// walk feeding eight cache metrics).
func (r *Registry) RegisterView(view func(add ViewAdd)) {
	r.mu.Lock()
	r.views = append(r.views, view)
	r.mu.Unlock()
}

// SetVolatile marks metric names (every label set of each) as
// schedule-dependent: their values vary with worker interleaving even
// for a fixed seed, so StableSnapshot — the series-sampling view —
// excludes them. See the package determinism contract.
func (r *Registry) SetVolatile(names ...string) {
	r.mu.Lock()
	for _, n := range names {
		r.volatile[n] = true
	}
	r.mu.Unlock()
}

// Snapshot captures every registered metric, sorted by (name, labels).
func (r *Registry) Snapshot() *Snapshot { return r.snapshot(false) }

// StableSnapshot captures only schedule-independent metrics — the subset
// campaign series are built from.
func (r *Registry) StableSnapshot() *Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(stableOnly bool) *Snapshot {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	views := make([]func(add ViewAdd), len(r.views))
	copy(views, r.views)
	isVolatile := func(name string) bool { return r.volatile[name] }
	var at time.Time
	if r.clock != nil {
		at = r.clock.Now()
	}
	r.mu.Unlock()

	snap := &Snapshot{At: at}
	for _, e := range entries {
		if stableOnly && isVolatile(e.name) {
			continue
		}
		snap.Metrics = append(snap.Metrics, e.read())
	}
	for _, view := range views {
		view(func(name string, kind Kind, value float64, labels ...Label) {
			if stableOnly && isVolatile(name) {
				return
			}
			snap.Metrics = append(snap.Metrics, Metric{
				Name: name, Labels: sortedLabels(labels), Kind: kind, Value: value,
			})
		})
	}
	snap.sort()
	return snap
}

// read materializes the entry's current value.
func (e *entry) read() Metric {
	m := Metric{Name: e.name, Labels: sortedLabels(e.labels)}
	if e.hist != nil {
		m.Kind = KindHistogram
		m.Count, m.Sum, m.Buckets = e.hist.snapshot()
	} else {
		m.Value = float64(e.counter.Load())
	}
	return m
}

func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Metric is one snapshotted metric value.
type Metric struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Value carries counter and gauge readings.
	Value float64
	// Count, Sum (seconds), and Buckets carry histogram readings; bucket
	// counts are cumulative, Prometheus-style.
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Key renders the metric's stable identity (name plus sorted labels).
func (m Metric) Key() string { return metricKey(m.Name, m.Labels) }

// Bucket is one histogram bucket in a snapshot: LE is the upper bound in
// seconds (math.Inf(1) for the overflow bucket), Count the cumulative
// count at or below it.
type Bucket struct {
	LE    float64
	Count uint64
}

// Snapshot is a point-in-time capture of a registry, ordered by metric
// key so equal registries give equal snapshots.
type Snapshot struct {
	At      time.Time
	Metrics []Metric
}

// sort orders Metrics by rendered key, rendering each key once rather
// than twice per comparison (campaigns snapshot at every stage boundary).
func (s *Snapshot) sort() {
	keys := make([]string, len(s.Metrics))
	for i := range s.Metrics {
		keys[i] = s.Metrics[i].Key()
	}
	sort.Sort(&metricsByKey{keys, s.Metrics})
}

// metricsByKey sorts metrics and their pre-rendered keys in step.
type metricsByKey struct {
	keys    []string
	metrics []Metric
}

func (m *metricsByKey) Len() int           { return len(m.keys) }
func (m *metricsByKey) Less(i, j int) bool { return m.keys[i] < m.keys[j] }
func (m *metricsByKey) Swap(i, j int) {
	m.keys[i], m.keys[j] = m.keys[j], m.keys[i]
	m.metrics[i], m.metrics[j] = m.metrics[j], m.metrics[i]
}

// Get returns the metric for (name, labels). Metrics is always sorted by
// key (every snapshot constructor — snapshot, Sub, MergeSnapshots — ends
// sorted), so the lookup is a binary search: Get is called per-assertion
// in campaign tests and per-tick in drill reporting, where a linear scan
// over a fleet-sized registry added up.
func (s *Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	key := metricKey(name, labels)
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Key() >= key })
	if i < len(s.Metrics) && s.Metrics[i].Key() == key {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// Value returns the metric's value (0 when absent) — the convenient read
// for report rendering.
func (s *Snapshot) Value(name string, labels ...Label) float64 {
	m, _ := s.Get(name, labels...)
	return m.Value
}

// Sub returns this snapshot with a baseline's counters and histogram
// counts removed — the drill-delta view. Gauges keep their current
// reading (a gauge is a level, not an accumulation); metrics absent from
// the baseline pass through unchanged.
func (s *Snapshot) Sub(base *Snapshot) *Snapshot {
	prior := map[string]Metric{}
	for _, m := range base.Metrics {
		prior[m.Key()] = m
	}
	out := &Snapshot{At: s.At, Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		b, ok := prior[m.Key()]
		if ok && m.Kind != KindGauge {
			m.Value -= b.Value
			m.Count -= b.Count
			m.Sum -= b.Sum
			m.Buckets = subBuckets(m.Buckets, b.Buckets)
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

func subBuckets(cur, base []Bucket) []Bucket {
	if len(cur) == 0 {
		return nil
	}
	out := append([]Bucket(nil), cur...)
	byLE := map[float64]uint64{}
	for _, b := range base {
		byLE[b.LE] = b.Count
	}
	for i := range out {
		out[i].Count -= byLE[out[i].LE]
	}
	return out
}

// MergeSnapshots folds snapshots into one: counters, histogram counts,
// and gauges sum (an additive merge — the use case is children of one
// partitioned workload, where levels like pool health add up across
// replicas); the latest At wins. The result is independent of argument
// order, which is what lets per-day child registries merge in commit
// order without caring how workers finished.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	contrib := map[string][]Metric{}
	var at time.Time
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.At.After(at) {
			at = s.At
		}
		for _, m := range s.Metrics {
			key := m.Key()
			contrib[key] = append(contrib[key], m)
		}
	}
	out := &Snapshot{At: at, Metrics: make([]Metric, 0, len(contrib))}
	for _, ms := range contrib {
		// Float addition is not associative, so fold each key's
		// contributions in a sorted order — that, not the map walk, is
		// what makes the merge independent of argument order.
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].Value != ms[j].Value {
				return ms[i].Value < ms[j].Value
			}
			return ms[i].Sum < ms[j].Sum
		})
		acc := ms[0]
		acc.Buckets = append([]Bucket(nil), ms[0].Buckets...)
		for _, m := range ms[1:] {
			acc.Value += m.Value
			acc.Count += m.Count
			acc.Sum += m.Sum
			acc.Buckets = addBuckets(acc.Buckets, m.Buckets)
		}
		out.Metrics = append(out.Metrics, acc)
	}
	out.sort()
	return out
}

func addBuckets(a, b []Bucket) []Bucket {
	byLE := map[float64]int{}
	for i := range a {
		byLE[a[i].LE] = i
	}
	for _, bb := range b {
		if i, ok := byLE[bb.LE]; ok {
			a[i].Count += bb.Count
		} else {
			a = append(a, bb)
		}
	}
	return a
}
