package obs

import (
	"testing"
	"time"
)

func TestRecorderEmitAndWindow(t *testing.T) {
	clock := testClock()
	r := NewRecorder(clock, 16)
	start := clock.Now()
	r.Emit("pool.cooldown", L("member", "doh-0"))
	clock.Advance(time.Minute)
	r.Emit("cache.stale", L("reason", "cooldown"))
	clock.Advance(time.Minute)
	r.Emit("frontend.dead", L("frontend", "doh-1"))

	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	// The middle minute only.
	win := r.Window(start.Add(30*time.Second), start.Add(90*time.Second))
	if len(win) != 1 || win[0].Kind != "cache.stale" {
		t.Fatalf("window = %+v, want the cache.stale event", win)
	}
	// Inclusive edges.
	win = r.Window(start, start.Add(2*time.Minute))
	if len(win) != 3 {
		t.Fatalf("full window = %d events, want 3", len(win))
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestRecorderRingBoundAndDropped(t *testing.T) {
	r := NewRecorder(nil, 4)
	for i := 0; i < 10; i++ {
		r.Emit("e", L("i", string(rune('a'+i))))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	// Oldest-first eviction: the survivors are the last four emissions,
	// and the window still reads oldest first after the ring has wrapped
	// (10 emits into 4 slots leave the oldest mid-array).
	win := r.Window(time.Time{}, time.Unix(1<<40, 0))
	var got string
	for _, e := range win {
		got += e.Labels[0].Value
	}
	if got != "ghij" {
		t.Fatalf("window after wrap = %q, want the last four emissions \"ghij\"", got)
	}
}

func TestCountEvents(t *testing.T) {
	events := []Event{
		{Kind: "client.stale"},
		{Kind: "client.stale"},
		{Kind: "client.stale", Labels: []Label{L("proto", "doh")}},
		{Kind: "client.negative"},
	}
	counts := CountEvents(events)
	if len(counts) != 3 {
		t.Fatalf("count groups = %d, want 3: %+v", len(counts), counts)
	}
	if counts[0].Kind != "client.negative" || counts[0].Count != 1 {
		t.Fatalf("counts[0] = %+v", counts[0])
	}
	if counts[1].Kind != "client.stale" || counts[1].Count != 2 || counts[1].Labels != nil {
		t.Fatalf("counts[1] = %+v", counts[1])
	}
	if counts[2].Count != 1 || len(counts[2].Labels) != 1 {
		t.Fatalf("counts[2] = %+v", counts[2])
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit("x")
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder retained state")
	}
	if r.Window(time.Time{}, time.Time{}) != nil {
		t.Fatal("nil recorder returned events")
	}
}
