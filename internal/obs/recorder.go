package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultEventCapacity bounds a flight recorder's event ring when the
// caller does not choose one. The ring is the live drill window only:
// capture bundles read StableCounts, which eviction never touches.
const DefaultEventCapacity = 4096

// Event is one typed flight-recorder event on the virtual timeline:
// what happened (Kind), when on the virtual clock (At), and to whom
// (Labels, sorted by key). Events are emitted at the moment state
// changes — a pool member entering cooldown, a stale answer served, a
// flash crowd starting — so a drill report can answer "what led up to
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
// the virtual clock. A nil *Recorder is valid everywhere and records
// nothing, so emission sites pay one nil check when the recorder is off.
//
// Like the metrics registry, the recorder distinguishes stable from
// volatile event kinds: kinds whose emission multiset depends on worker
// interleaving (attempt-side transport events — pool cooldowns, races,
// per-frontend stale serves) are marked volatile by their emitter, and
// StableCounts excludes them, which is what lets anomaly captures ride
// pipelined campaigns byte-identically. Window returns everything, for
// live single-driver tooling.
type Recorder struct {
	clock Clock
	cap   int

	mu sync.Mutex
	// events is the bounded ring: it grows to cap, after which each emit
	// overwrites the oldest event in place, at index oldest.
	events   []Event
	oldest   int
	dropped  uint64
	volatile map[string]bool
	// counts is the exact stable-kind emission multiset, keyed by
	// Event.Key(). Unlike the ring it is never evicted, so capture
	// bundles stay exact even when volatile-event pressure overflows the
	// ring — see StableCounts.
	counts map[string]*EventCount
}

// NewRecorder builds a recorder on the given clock; capacity ≤ 0 selects
// DefaultEventCapacity.
func NewRecorder(clock Clock, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{
		clock: clock, cap: capacity,
		volatile: map[string]bool{},
		counts:   map[string]*EventCount{},
	}
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
	if !r.volatile[e.Kind] {
		k := e.Key()
		if c, ok := r.counts[k]; ok {
			c.Count++
		} else {
			r.counts[k] = &EventCount{Kind: e.Kind, Labels: e.Labels, Count: 1}
		}
	}
	r.mu.Unlock()
}

// SetVolatile marks event kinds as schedule-dependent: their emission
// multiset varies with worker interleaving even for a fixed seed, so
// StableCounts — the capture view — excludes them.
// Counts accumulated for a kind before it is declared volatile are
// purged, but emitters should declare volatility at wiring time, before
// any traffic, as the fleet does.
func (r *Recorder) SetVolatile(kinds ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, k := range kinds {
		r.volatile[k] = true
	}
	for key, c := range r.counts {
		if r.volatile[c.Kind] {
			delete(r.counts, key)
		}
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
// non-zero count means Window describes a truncated timeline;
// StableCounts stays exact.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Window returns the retained events with from ≤ At ≤ to, in arrival
// order — the live drill view, volatile kinds included.
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

// StableCounts returns the exact stable-kind emission multiset,
// aggregated by (kind, sorted labels) and sorted by key — an
// order-insensitive form, since arrival order under concurrent emitters
// is schedule-dependent even when the multiset is not. It is immune to
// ring eviction: volatile-event pressure can overflow the bounded ring
// (Dropped() > 0 truncates Window) without perturbing these counts,
// which is why anomaly capture bundles are built from this accessor
// rather than the ring.
func (r *Recorder) StableCounts() []EventCount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]EventCount, 0, len(keys))
	for _, k := range keys {
		out = append(out, *r.counts[k])
	}
	r.mu.Unlock()
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
// counts sorted by key — the compact, order-insensitive form anomaly
// captures store.
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
