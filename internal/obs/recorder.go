package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultEventCapacity bounds a flight recorder's event ring when the
// caller does not choose one.
const DefaultEventCapacity = 4096

// Event is one typed flight-recorder event on the virtual timeline:
// what happened (Kind), when on the virtual clock (At), and to whom
// (Labels, sorted by key). Events are emitted at the moment state
// changes — a pool member entering cooldown, a stale answer served, a
// frontend going dead — so a drill report can answer "what led up to
// this?" without replaying the run.
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Labels []Label   `json:"labels,omitempty"`
}

// Key renders the event's (kind, sorted labels) identity — the grouping
// key for aggregation and the canonical tie-break for sorting.
func (e Event) Key() string { return metricKey(e.Kind, e.Labels) }

// Recorder is a bounded flight-recorder ring of typed events stamped by
// the virtual clock: the live timeline a drill reads back through
// Window. Counts live in the registry, not here. A nil *Recorder is
// valid everywhere and records nothing, so emission sites pay one nil
// check when the recorder is off.
type Recorder struct {
	clock Clock
	cap   int

	mu sync.Mutex
	// events is the bounded ring: it grows to cap, after which each emit
	// overwrites the oldest event in place, at index oldest.
	events  []Event
	oldest  int
	dropped uint64
}

// NewRecorder builds a recorder on the given clock; capacity ≤ 0 selects
// DefaultEventCapacity.
func NewRecorder(clock Clock, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{clock: clock, cap: capacity}
}

// Emit records one event at the clock's current virtual time (nil-safe).
func (r *Recorder) Emit(kind string, labels ...Label) {
	if r == nil {
		return
	}
	e := Event{Kind: kind, Labels: sortedLabels(labels)}
	if r.clock != nil {
		e.At = r.clock.Now()
	}
	r.mu.Lock()
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
	} else {
		r.events[r.oldest] = e
		r.oldest = (r.oldest + 1) % r.cap
		r.dropped++
	}
	r.mu.Unlock()
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped reports how many events the bounded ring has evicted. A
// non-zero count means Window describes a truncated timeline.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Window returns the retained events with from ≤ At ≤ to, in arrival
// order.
func (r *Recorder) Window(from, to time.Time) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for i := range r.events {
		e := r.events[(r.oldest+i)%len(r.events)]
		if e.At.Before(from) || e.At.After(to) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// EventCount is one aggregated event-multiset entry: how many times the
// (kind, labels) event fired.
type EventCount struct {
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
}

// Key renders the group's (kind, sorted labels) identity — the same
// rendering Event.Key uses.
func (c EventCount) Key() string { return metricKey(c.Kind, c.Labels) }

// CountEvents aggregates events by (kind, sorted labels), returning the
// counts sorted by key — the compact, order-insensitive form a drill
// summary prints.
func CountEvents(events []Event) []EventCount {
	byKey := map[string]*EventCount{}
	keys := make([]string, 0, 8)
	for _, e := range events {
		k := e.Key()
		if c, ok := byKey[k]; ok {
			c.Count++
			continue
		}
		byKey[k] = &EventCount{Kind: e.Kind, Labels: e.Labels, Count: 1}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]EventCount, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}
