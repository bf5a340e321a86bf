package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceConfig parameterizes a Tracer.
type TraceConfig struct {
	// SampleEvery traces one exchange in every N (head-based, counter-
	// driven — never random, so single-driver loops sample the identical
	// exchanges run over run) into the head ring; 1 traces everything,
	// and 0 keeps no head ring at all (a tail-only tracer).
	SampleEvery int
	// Capacity bounds the head ring, which keeps the costliest sampled
	// traces ranked like the tail ring; 0 selects DefaultTraceCapacity.
	Capacity int
	// Tail, when non-nil, enables tail-based retention alongside head
	// sampling: Finish judges every exchange, sampled or not, by the
	// outcome its owner reports and keeps those matching the anomaly
	// predicate — any TraceFlag set (error, SERVFAIL, stale-served,
	// failover, race fired) or virtual cost at or over
	// Tail.Latency — ranked in a bounded top-K ring by virtual cost. One
	// that head sampling skipped is kept as a span-less record, so
	// SampleEvery 1 with Tail is how to get span trees for anomalies.
	Tail *TailConfig
}

// TailConfig parameterizes tail-based trace retention.
type TailConfig struct {
	// Latency keeps any finished trace whose virtual cost reaches the
	// threshold; 0 disables the latency predicate (anomaly flags still
	// keep traces).
	Latency time.Duration
	// TopK bounds the tail ring; 0 selects DefaultTopK.
	TopK int
}

// Tracer defaults.
const (
	DefaultTraceCapacity = 64
	DefaultTopK          = 32
)

// TraceFlag marks an exchange-level anomaly on a finished trace — the
// tail sampler's keep predicate. The exchange owner (the transport
// client) derives the flags from the exchange's outcome and hands them
// to Finish.
type TraceFlag uint8

const (
	// FlagError marks an exchange that failed outright (every upstream
	// errored).
	FlagError TraceFlag = 1 << iota
	// FlagServFail marks an exchange whose final answer was a SERVFAIL.
	FlagServFail
	// FlagStale marks an RFC 8767 stale-served answer.
	FlagStale
	// FlagFailover marks an exchange that needed more than one attempt
	// without racing — serial failover past a dead or failing member.
	FlagFailover
	// FlagRace marks an exchange whose happy-eyeballs race actually
	// fired.
	FlagRace
)

// traceFlagNames orders flag names for stable rendering.
var traceFlagNames = []struct {
	flag TraceFlag
	name string
}{
	{FlagError, "error"},
	{FlagServFail, "servfail"},
	{FlagStale, "stale"},
	{FlagFailover, "failover"},
	{FlagRace, "race"},
}

// Strings renders the set flags as a stable, declaration-ordered name
// list (nil when no flag is set).
func (f TraceFlag) Strings() []string {
	var out []string
	for _, fn := range traceFlagNames {
		if f&fn.flag != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// String renders the flag set as a comma-joined list ("" when empty).
func (f TraceFlag) String() string { return strings.Join(f.Strings(), ",") }

// Tracer samples exchanges into traces and retains the costliest ones in
// a bounded ring. A nil *Tracer is valid everywhere and traces
// nothing, so the exchange path carries exactly one nil check when
// tracing is off.
type Tracer struct {
	clock Clock
	every uint64 // 0: no head sampling
	cap   int
	tail  *TailConfig // nil: tail retention off; TopK resolved

	seq    atomic.Uint64
	nextID atomic.Uint64

	mu       sync.Mutex
	ring     []*Trace // top-cap head-sampled traces, rank order (rankInsert)
	tailRing []*Trace // top-K tail-kept traces, rank order
}

// NewTracer builds a tracer on the given clock.
func NewTracer(clock Clock, cfg TraceConfig) *Tracer {
	every := max(cfg.SampleEvery, 0)
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{clock: clock, every: uint64(every), cap: capacity}
	if cfg.Tail != nil {
		tail := *cfg.Tail
		if tail.TopK <= 0 {
			tail.TopK = DefaultTopK
		}
		t.tail = &tail
	}
	return t
}

// TailEnabled reports whether tail-based retention is on (false on nil).
func (t *Tracer) TailEnabled() bool { return t != nil && t.tail != nil }

// Start begins a trace for the named exchange if head sampling selects
// it. Returns nil on an unsampled exchange (and always on a nil or
// tail-only tracer). The returned Trace is single-goroutine state: one
// exchange, one owner.
func (t *Tracer) Start(name string) *Trace {
	if t == nil || t.every == 0 || (t.seq.Add(1)-1)%t.every != 0 {
		return nil
	}
	tr := &Trace{ID: t.nextID.Add(1), Name: name}
	if t.clock != nil {
		tr.Start = t.clock.Now()
	}
	return tr
}

// Finish closes the named exchange with what its owner knows once it is
// over: its anomaly flags and total virtual duration. A head-sampled
// exchange (tr non-nil) is ranked into the head ring; with tail retention on,
// an exchange with a flag set, or a cost at or over the latency
// threshold, is ranked into the top-K tail ring, sampled or not. One that
// is neither allocates nothing. Nil-safe on both receiver and trace.
func (t *Tracer) Finish(tr *Trace, name string, flags TraceFlag, total time.Duration) {
	if t == nil {
		return
	}
	tail := t.tail != nil && (flags != 0 || (t.tail.Latency > 0 && total >= t.tail.Latency))
	if tr == nil && !tail {
		return
	}
	if tr != nil {
		tr.Flags, tr.Duration = flags, total
	}
	t.mu.Lock()
	if tr != nil {
		t.ring = t.rankInsert(t.ring, t.cap, tr, name, flags, total)
	}
	if tail {
		t.tailRing = t.rankInsert(t.tailRing, t.tail.TopK, tr, name, flags, total)
	}
	t.mu.Unlock()
}

// rankInsert ranks the exchange into ring, bounded at k, and returns the
// ring (caller holds mu): higher virtual cost first, then name, then
// flags — properties of the exchange, not of scheduling, so the retained
// content is stable under concurrent drivers; full ties keep arrival
// order. An unsampled exchange (nil tr) gets its span-less record only
// once it is known to rank, with Start back-dated from the clock by its
// virtual cost.
func (t *Tracer) rankInsert(ring []*Trace, k int, tr *Trace, name string, flags TraceFlag, total time.Duration) []*Trace {
	i := sort.Search(len(ring), func(i int) bool {
		r := ring[i]
		if r.Duration != total {
			return r.Duration < total
		}
		if r.Name != name {
			return r.Name > name
		}
		return r.Flags > flags
	})
	if i >= k {
		return ring // ranks below the ring's floor
	}
	if tr == nil {
		tr = &Trace{ID: t.nextID.Add(1), Name: name, Flags: flags, Duration: total}
		if t.clock != nil {
			tr.Start = t.clock.Now().Add(-total)
		}
	}
	ring = append(ring, nil)
	copy(ring[i+1:], ring[i:])
	ring[i] = tr
	return ring[:min(len(ring), k)]
}

// Tail returns the tail-retained traces in rank order (highest virtual
// cost first); one that head sampling skipped carries no spans. The
// slice is a copy; the traces are shared.
func (t *Tracer) Tail() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.tailRing...)
}

// Len reports the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Slowest returns up to n head-sampled traces in rank order (highest
// virtual cost first). The slice is a copy; the traces are shared.
func (t *Tracer) Slowest(n int) []*Trace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.ring[:min(n, len(t.ring))]...)
}

// Span is one event on a trace's virtual timeline. Offset is the span's
// launch offset from the exchange start (the strategy layer's simulated-
// concurrency offsets: race stagger edges); Dur is its
// virtual duration (zero for structural server-side events, whose cost
// is carried by the enclosing dial span).
type Span struct {
	Name   string        `json:"name"`
	Depth  int           `json:"depth"`
	Offset time.Duration `json:"offset"`
	Dur    time.Duration `json:"dur"`
	Attrs  []Label       `json:"attrs,omitempty"`
}

// Trace is one sampled exchange's span record. It is owned by the
// exchange's goroutine until Finish; every method is nil-receiver-safe,
// so unsampled paths pay only the nil checks.
type Trace struct {
	ID       uint64        `json:"id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Spans    []Span        `json:"spans"`
	// Flags carries the exchange-level anomaly markers the tail sampler
	// keys on, as the exchange owner reported them to Finish.
	Flags TraceFlag `json:"flags,omitempty"`

	depth int
}

// Add records a leaf span at the current nesting depth.
func (tr *Trace) Add(name string, offset, dur time.Duration, attrs ...Label) {
	if tr == nil {
		return
	}
	tr.Spans = append(tr.Spans, Span{Name: name, Depth: tr.depth, Offset: offset, Dur: dur, Attrs: attrs})
}

// Enter opens a span and deepens nesting — spans recorded until the
// matching Exit become its children. It returns the span's index for
// Exit (-1 on a nil trace).
func (tr *Trace) Enter(name string, offset time.Duration, attrs ...Label) int {
	if tr == nil {
		return -1
	}
	tr.Spans = append(tr.Spans, Span{Name: name, Depth: tr.depth, Offset: offset, Attrs: attrs})
	tr.depth++
	return len(tr.Spans) - 1
}

// Exit closes the span opened at idx, setting its virtual duration and
// appending any outcome attributes.
func (tr *Trace) Exit(idx int, dur time.Duration, attrs ...Label) {
	if tr == nil || idx < 0 || idx >= len(tr.Spans) {
		return
	}
	tr.depth--
	tr.Spans[idx].Dur = dur
	tr.Spans[idx].Attrs = append(tr.Spans[idx].Attrs, attrs...)
}

// Tree renders the trace as an indented span tree on the virtual
// timeline.
func (tr *Trace) Tree() string {
	if tr == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d %s (%v)", tr.ID, tr.Name, tr.Duration)
	if tr.Flags != 0 {
		fmt.Fprintf(&b, " [%s]", tr.Flags)
	}
	b.WriteByte('\n')
	for _, sp := range tr.Spans {
		fmt.Fprintf(&b, "  %s+%-8v %s", strings.Repeat("  ", sp.Depth), sp.Offset, sp.Name)
		if sp.Dur > 0 {
			fmt.Fprintf(&b, " (%v)", sp.Dur)
		}
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
