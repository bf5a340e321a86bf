package workload

import (
	"cmp"
	"math"
	"slices"
)

// client is one simulated stub's schedule state in a single 24-byte
// record: its RNG stream, the due time of its one pending arrival (unix
// nanoseconds), the next client in that arrival's calendar bucket, and
// its protocol preference (a transport.Protocol; unused without a Mix).
// Popping an arrival brings the whole record into cache, so drawing the
// next gap and the domain costs no further miss.
type client struct {
	rng  rng
	due  int64
	next uint32
	pref int8
}

// event is one popped arrival: the due time and the client that fires.
type event struct {
	due    int64
	client uint32
}

// cmpEvent orders events by (due, client): the client ID tie-break makes
// the pop sequence — and with it the whole engine — a total order, so two
// runs with the same seed replay byte-identically even when many clients
// share a due time.
func cmpEvent(a, b event) int {
	if c := cmp.Compare(a.due, b.due); c != 0 {
		return c
	}
	return cmp.Compare(a.client, b.client)
}

// noClient ends a bucket list.
const noClient = ^uint32(0)

// Calendar geometry. A bucket spans the largest power of two nanoseconds
// that holds at most bucketLoad arrivals at the configured aggregate rate
// (so between half and all of bucketLoad), and the ring spans at least
// lapGaps mean gaps, so most pushes land within the current lap and few
// events are walked past more than once. Neither affects the pop order,
// only its cost.
const (
	bucketLoad = 16
	lapGaps    = 2
	maxSlots   = 1 << 20
)

// calendar is a calendar queue over the clients' pending arrivals —
// exactly one per client, linked through client.next. Bucket b covers
// due times [b<<shift, (b+1)<<shift) and lives in ring slot b&mask, so a
// slot holds the buckets of every lap at once. Activating a bucket
// unlinks the events of that bucket from its slot, sorts them by
// (due, client) into run, and leaves later laps' events where they are;
// pops then walk run. A push at or before the active bucket is merged
// into the unconsumed part of run, so the pop order is exactly that of a
// single (due, client) min-heap whatever the geometry.
type calendar struct {
	clients []client
	heads   []uint32 // first client per ring slot, noClient when empty
	run     []event  // the active bucket's events, sorted
	pos     int      // next index of run to pop
	cur     int64    // active bucket number (due >> shift)
	low     int64    // no event in a slot list is due before this
	shift   uint
	mask    int64
	size    int // pending events
}

// newCalendar builds the queue for n clients whose own arrivals are
// meanGap nanoseconds apart on average (aggregate rate n/meanGap). Every
// array the queue uses is allocated here; run only grows if a bucket
// ever holds several times its expected load.
func newCalendar(n int, meanGap float64) calendar {
	width := meanGap * bucketLoad / float64(n)
	var shift uint
	for shift < 62 && float64(int64(2)<<shift) <= width {
		shift++
	}
	slots := 1
	for slots < maxSlots && float64(slots)*float64(int64(1)<<shift) < lapGaps*meanGap {
		slots *= 2
	}
	c := calendar{
		clients: make([]client, n),
		heads:   make([]uint32, slots),
		run:     make([]event, 0, 8*bucketLoad),
		cur:     -1,
		low:     math.MaxInt64,
		shift:   shift,
		mask:    int64(slots - 1),
	}
	for i := range c.heads {
		c.heads[i] = noClient
	}
	return c
}

// Push schedules client id, which must have no pending event, at due.
func (c *calendar) Push(id uint32, due int64) {
	cl := &c.clients[id]
	cl.due = due
	c.size++
	if b := due >> c.shift; b > c.cur {
		slot := &c.heads[b&c.mask]
		cl.next, *slot = *slot, id
		c.low = min(c.low, due)
		return
	}
	// The active bucket (or earlier): insert into the sorted remainder.
	e := event{due: due, client: id}
	c.run = append(c.run, e)
	for i := len(c.run) - 1; i > c.pos && cmpEvent(e, c.run[i-1]) < 0; i-- {
		c.run[i], c.run[i-1] = c.run[i-1], e
	}
}

// Pop removes and returns the minimal event by (due, client).
func (c *calendar) Pop() (event, bool) {
	if c.pos == len(c.run) {
		if c.size == 0 {
			return event{}, false
		}
		c.advance()
	}
	e := c.run[c.pos]
	c.pos++
	c.size--
	return e, true
}

// advance activates the next bucket that holds any event, starting no
// earlier than c.low's. Each step unlinks the events of the new active
// bucket from its slot; a whole lap of slots with none means every
// pending event was walked past, and the queue jumps straight to the
// earliest one's bucket.
func (c *calendar) advance() {
	c.run, c.pos = c.run[:0], 0
	for {
		c.cur = max(c.cur, c.low>>c.shift-1)
		low := int64(math.MaxInt64)
		for range c.mask + 1 {
			c.cur++
			link := &c.heads[c.cur&c.mask]
			for id := *link; id != noClient; id = *link {
				cl := &c.clients[id]
				if cl.due>>c.shift <= c.cur {
					*link = cl.next
					c.run = append(c.run, event{due: cl.due, client: id})
				} else {
					low = min(low, cl.due)
					link = &cl.next
				}
			}
			if len(c.run) > 0 {
				slices.SortFunc(c.run, cmpEvent)
				return
			}
		}
		c.low = low
	}
}
