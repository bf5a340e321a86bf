package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/testrace"
)

// exchange runs one exchange through the tracer the way its owner does:
// Start, then Finish with the outcome.
func exchange(t *Tracer, name string, flags TraceFlag, total time.Duration) {
	t.Finish(t.Start(name), name, flags, total)
}

func TestTracerHeadSampling(t *testing.T) {
	tr := NewTracer(testClock(), TraceConfig{SampleEvery: 4, Capacity: 16})
	var sampled int
	for i := 0; i < 16; i++ {
		if trace := tr.Start("q"); trace != nil {
			sampled++
			tr.Finish(trace, "q", 0, time.Duration(i+1)*time.Millisecond)
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4, want 4", sampled)
	}
	// The first exchange is always sampled (head-based, not offset).
	tr2 := NewTracer(nil, TraceConfig{SampleEvery: 100})
	if tr2.Start("first") == nil {
		t.Fatal("first exchange was not sampled")
	}
	// The zero value keeps no head ring at all.
	tail := NewTracer(nil, TraceConfig{Tail: &TailConfig{}})
	for i := 0; i < 4; i++ {
		exchange(tail, "q", 0, time.Millisecond)
	}
	if tail.Len() != 0 {
		t.Fatalf("SampleEvery 0 head-sampled %d exchanges, want none", tail.Len())
	}
}

func TestTracerRingBoundAndSlowest(t *testing.T) {
	tr := NewTracer(nil, TraceConfig{SampleEvery: 1, Capacity: 4})
	for i := 1; i <= 10; i++ {
		exchange(tr, "q", 0, time.Duration(i)*time.Millisecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", tr.Len())
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("Slowest(2) = %d traces", len(slow))
	}
	if slow[0].Duration != 10*time.Millisecond || slow[1].Duration != 9*time.Millisecond {
		t.Fatalf("slowest durations = %v, %v", slow[0].Duration, slow[1].Duration)
	}
}

// TestTracerHeadRingKeepsCostliest: the head ring ranks by cost, so the
// costliest exchange survives any number of cheaper ones after it.
func TestTracerHeadRingKeepsCostliest(t *testing.T) {
	tr := NewTracer(nil, TraceConfig{SampleEvery: 1, Capacity: 2})
	exchange(tr, "costly", 0, time.Second)
	for i := 1; i <= 5; i++ {
		exchange(tr, "cheap", 0, time.Duration(i)*time.Millisecond)
	}
	if slow := tr.Slowest(1); len(slow) != 1 || slow[0].Name != "costly" {
		t.Fatalf("Slowest(1) kept %d traces, the first costing %v; want the 1 s exchange traced first",
			len(slow), slow[0].Duration)
	}
	if slow := tr.Slowest(3); len(slow) != 2 || slow[1].Duration != 5*time.Millisecond {
		t.Fatalf("Slowest(3) kept %d traces, the last costing %v; want the 1 s and the 5 ms exchange",
			len(slow), slow[len(slow)-1].Duration)
	}
}

func TestNilTracerAndTraceSafe(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("q")
	if trace != nil {
		t.Fatal("nil tracer sampled a trace")
	}
	// Every trace method must be a no-op on nil.
	trace.Add("x", 0, 0)
	idx := trace.Enter("y", 0)
	if idx != -1 {
		t.Fatalf("nil Enter = %d, want -1", idx)
	}
	trace.Exit(idx, 0)
	if trace.Tree() != "" {
		t.Fatal("nil Tree returned text")
	}
	tr.Finish(trace, "q", FlagError, time.Second)
	if tr.Len() != 0 || tr.Slowest(1) != nil {
		t.Fatal("nil tracer retained state")
	}
}

// TestTailSamplingKeepsAnomalies drives exchanges the head sampler
// skips — Start hands them no trace — and asserts the tail ring retains
// exactly the anomalous ones from the outcome Finish is given: the
// flagged stale serve and the over-threshold slow exchange, ranked by
// virtual cost, as span-less records.
func TestTailSamplingKeepsAnomalies(t *testing.T) {
	clock := testClock()
	tr := NewTracer(clock, TraceConfig{
		SampleEvery: 100,
		Tail:        &TailConfig{Latency: 50 * time.Millisecond, TopK: 4},
	})
	var staleStart time.Time
	for i := 0; i < 10; i++ {
		trace := tr.Start("q")
		if (trace != nil) != (i == 0) {
			t.Fatalf("exchange %d: traced = %v; tail retention must not widen head sampling", i, trace != nil)
		}
		dur, flags := 10*time.Millisecond, TraceFlag(0)
		if i == 3 {
			flags = FlagStale
			staleStart = clock.Now()
		}
		if i == 7 {
			dur = 60 * time.Millisecond
		}
		clock.Advance(dur) // a charging clock: the exchange's cost elapses
		tr.Finish(trace, "q", flags, dur)
	}
	// Head sampling unchanged: only the first exchange (every=100).
	if tr.Len() != 1 {
		t.Fatalf("head ring len = %d, want 1", tr.Len())
	}
	tail := tr.Tail()
	if len(tail) != 2 {
		t.Fatalf("tail ring len = %d, want 2 (stale + slow): %v", len(tail), tail)
	}
	if tail[0].Duration != 60*time.Millisecond || tail[0].Flags != 0 {
		t.Fatalf("tail[0] = %+v, want the unflagged 60ms exchange first", tail[0])
	}
	if tail[1].Flags != FlagStale || tail[1].Name != "q" || tail[1].Duration != 10*time.Millisecond {
		t.Fatalf("tail[1] = %+v, want the 10ms stale exchange", tail[1])
	}
	if got := tail[1].Flags.String(); got != "stale" {
		t.Fatalf("flag rendering = %q, want \"stale\"", got)
	}
	// A record made at Finish is back-dated by its cost: the exchange's
	// start, not its end.
	if !tail[1].Start.Equal(staleStart) {
		t.Fatalf("tail[1] start = %v, want the exchange start %v", tail[1].Start, staleStart)
	}
	for i, tt := range tail {
		if len(tt.Spans) != 0 || tt.ID == 0 {
			t.Fatalf("tail[%d] = %+v, want a span-less record with an ID", i, tt)
		}
	}
}

// TestTailRingBoundedAndRanked pins the top-K bound and the ranking:
// feeding more anomalies than the ring holds keeps the K most expensive,
// in rank order, with ties broken by name and then by flags.
func TestTailRingBoundedAndRanked(t *testing.T) {
	tr := NewTracer(nil, TraceConfig{Tail: &TailConfig{TopK: 3}})
	for _, ms := range []int{3, 8, 1, 6, 2, 7, 5, 4} {
		exchange(tr, "q", FlagError, time.Duration(ms)*time.Millisecond)
	}
	tail := tr.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail ring len = %d, want 3", len(tail))
	}
	for i, want := range []time.Duration{8 * time.Millisecond, 7 * time.Millisecond, 6 * time.Millisecond} {
		if tail[i].Duration != want {
			t.Fatalf("tail[%d] duration = %v, want %v", i, tail[i].Duration, want)
		}
	}
	// Equal-cost anomalies rank by name: the same cost under three names
	// retains the two lexically earlier ones.
	tr2 := NewTracer(nil, TraceConfig{Tail: &TailConfig{TopK: 2}})
	for _, name := range []string{"bbb.test", "aaa.test", "ccc.test"} {
		exchange(tr2, name, FlagServFail, 5*time.Millisecond)
	}
	names := []string{tr2.Tail()[0].Name, tr2.Tail()[1].Name}
	if names[0] != "aaa.test" || names[1] != "bbb.test" {
		t.Fatalf("tie-break kept %v, want [aaa.test bbb.test]", names)
	}
	// Equal cost and name rank by flags, lower flag set first.
	tr3 := NewTracer(nil, TraceConfig{Tail: &TailConfig{TopK: 2}})
	for _, f := range []TraceFlag{FlagRace, FlagError, FlagStale | FlagRace} {
		exchange(tr3, "q", f, 5*time.Millisecond)
	}
	if got := []TraceFlag{tr3.Tail()[0].Flags, tr3.Tail()[1].Flags}; got[0] != FlagError || got[1] != FlagRace {
		t.Fatalf("flag tie-break kept %v, want [error race]", got)
	}
}

// TestTailDropsBelowFloorWithoutAllocating pins the cost of the common
// case under a racing strategy: an unsampled anomaly that ranks below a
// full ring's floor is judged on its outcome alone — no record is made
// for it.
func TestTailDropsBelowFloorWithoutAllocating(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := NewTracer(testClock(), TraceConfig{Tail: &TailConfig{TopK: 2}})
	for i := 0; i < 3; i++ { // fill the ring
		exchange(tr, "q", FlagRace, 9*time.Millisecond)
	}
	if got := testing.AllocsPerRun(100, func() { exchange(tr, "q", FlagRace, 5*time.Millisecond) }); got != 0 {
		t.Fatalf("a below-floor anomaly cost %v allocations, want 0", got)
	}
	if tail := tr.Tail(); len(tail) != 2 || tail[1].Duration != 9*time.Millisecond {
		t.Fatalf("tail ring = %+v, want the two 9ms exchanges", tail)
	}
}

// TestTailKeepsSampledTraceWithSpans pins the overlap of the two
// policies: an exchange that is head-sampled and anomalous sits in both
// rings as the one trace its owner recorded spans on.
func TestTailKeepsSampledTraceWithSpans(t *testing.T) {
	tr := NewTracer(testClock(), TraceConfig{SampleEvery: 4, Tail: &TailConfig{}})
	for i := 0; i < 4; i++ {
		trace := tr.Start("q")
		if trace != nil {
			trace.Add("receive", 0, 0)
			trace.Add("commit", 7*time.Millisecond, 0)
		}
		tr.Finish(trace, "q", FlagServFail, time.Duration(7+i)*time.Millisecond)
	}
	head, tail := tr.Slowest(1), tr.Tail()
	if len(head) != 1 || len(tail) != 4 {
		t.Fatalf("head ring %d, tail ring %d traces, want 1 and 4", len(head), len(tail))
	}
	// The sampled exchange was the cheapest, so it ranks last.
	if tail[3] != head[0] {
		t.Fatalf("tail[3] = %+v is not the head-sampled trace %+v", tail[3], head[0])
	}
	if len(tail[3].Spans) != 2 || tail[3].Flags != FlagServFail || tail[3].Duration != 7*time.Millisecond {
		t.Fatalf("sampled anomaly = %+v, want its two spans, the flag and the cost", tail[3])
	}
	for i, tt := range tail[:3] {
		if len(tt.Spans) != 0 {
			t.Fatalf("tail[%d] was never sampled yet carries spans: %+v", i, tt)
		}
	}
}

// TestTailNilSafe pins the nil and tail-off paths: a nil tracer and a
// head-only tracer report no tail state, whatever Finish is told.
func TestTailNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Finish(nil, "q", FlagError, time.Second)
	if tr.TailEnabled() || tr.Tail() != nil {
		t.Fatal("nil tracer reported tail state")
	}
	head := NewTracer(nil, TraceConfig{SampleEvery: 2})
	if head.TailEnabled() {
		t.Fatal("head-only tracer reported tail enabled")
	}
	exchange(head, "q", FlagStale, time.Second) // sampled
	exchange(head, "q", FlagStale, time.Second) // unsampled
	if len(head.Tail()) != 0 {
		t.Fatal("head-only tracer retained a tail trace")
	}
	if got := head.Slowest(2); len(got) != 1 || got[0].Flags != FlagStale {
		t.Fatalf("head ring = %+v, want the one sampled exchange with its flag", got)
	}
}

func TestTraceTreeNesting(t *testing.T) {
	tr := NewTracer(testClock(), TraceConfig{SampleEvery: 1})
	trace := tr.Start("example.com")
	trace.Add("receive", 0, 0, L("qtype", "HTTPS"))
	dial := trace.Enter("dial doh-0", 0, L("proto", "doh"))
	trace.Add("cache.probe", 0, 0, L("state", "miss"))
	trace.Exit(dial, 7*time.Millisecond, L("rcode", "NOERROR"))
	trace.Add("commit", 7*time.Millisecond, 0)
	tr.Finish(trace, "example.com", 0, 7*time.Millisecond)

	if got := trace.Spans[1].Depth; got != 0 {
		t.Fatalf("dial depth = %d, want 0", got)
	}
	if got := trace.Spans[2].Depth; got != 1 {
		t.Fatalf("cache.probe depth = %d, want 1 (nested under dial)", got)
	}
	if got := trace.Spans[3].Depth; got != 0 {
		t.Fatalf("commit depth = %d, want 0 (dial exited)", got)
	}
	tree := trace.Tree()
	for _, want := range []string{"example.com", "dial doh-0", "cache.probe", "state=miss", "rcode=NOERROR", "7ms"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}
