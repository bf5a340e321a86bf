package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// fakeTarget is a serving-layer double: it answers every query with a
// fixed HTTPS record and records the query-name sequence, so engine
// tests pin the engine's own event computation without fleet
// scheduling in the loop.
type fakeTarget struct {
	exchanges int
	names     []string
	fail      bool
}

func (f *fakeTarget) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	f.exchanges++
	if len(f.names) < 256 {
		f.names = append(f.names, q.Question[0].Name)
	}
	if f.fail {
		return nil, fmt.Errorf("fake target down")
	}
	resp := q.Reply()
	resp.Answer = append(resp.Answer, dnswire.RR{
		Name: q.Question[0].Name, Type: dnswire.TypeHTTPS,
		Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.SVCBData{Priority: 1, Target: "."},
	})
	return resp, nil
}

func testDomains(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("site%04d.example", i)
	}
	return out
}

func testClock() *simnet.Clock {
	return simnet.NewClock(time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
}

// pinnedDigest is Summary.Digest of TestSameSeedIdenticalRuns' config,
// held across commits: a scheduler, RNG or draw change that moves the
// event stream moves it.
const pinnedDigest = 0xe25b1df88a55c91e

// TestSameSeedIdenticalRuns is the engine's determinism contract: two
// runs of the same (seed, clock start, config) must replay the exact
// same event stream — same totals, same digest, same query-name
// sequence at the target — and that stream is the pinned one.
func TestSameSeedIdenticalRuns(t *testing.T) {
	cfg := Config{
		Clients: 2_000, Model: ModelOpen, Seed: 41,
		Domains: testDomains(300), Duration: 5 * time.Minute,
	}
	run := func() (Summary, *fakeTarget) {
		tgt := &fakeTarget{}
		eng, err := New(cfg, testClock(), tgt)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run(), tgt
	}
	a, ta := run()
	b, tb := run()
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	if a.Digest == 0 || a.Queries == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Digest != pinnedDigest {
		t.Fatalf("digest %#016x, pinned %#016x", a.Digest, uint64(pinnedDigest))
	}
	if len(ta.names) != len(tb.names) {
		t.Fatal("query-name sequences differ in length")
	}
	for i := range ta.names {
		if ta.names[i] != tb.names[i] {
			t.Fatalf("query %d name %q vs %q", i, ta.names[i], tb.names[i])
		}
	}
	if got := a.Queries - a.StubHits; got != uint64(ta.exchanges) {
		t.Fatalf("Queries-StubHits = %d, target saw %d exchanges", got, ta.exchanges)
	}
}

// TestDifferentSeedsDistinctDraws: distinct seeds must give every
// client a distinct RNG stream, so the Zipf draw sequences — and with
// them the digests — diverge.
func TestDifferentSeedsDistinctDraws(t *testing.T) {
	base := Config{
		Clients: 1_000, Model: ModelOpen, Domains: testDomains(200),
		Duration: 2 * time.Minute,
	}
	digests := map[uint64]int64{}
	for _, seed := range []int64{1, 2, 3} {
		cfg := base
		cfg.Seed = seed
		eng, err := New(cfg, testClock(), &fakeTarget{})
		if err != nil {
			t.Fatal(err)
		}
		sum := eng.Run()
		if prev, dup := digests[sum.Digest]; dup {
			t.Fatalf("seeds %d and %d produced the same digest %016x", prev, seed, sum.Digest)
		}
		digests[sum.Digest] = seed
	}

	// Directly: the per-client rank streams under two seeds must not
	// coincide.
	z := newZipfSampler(1000, 1.0)
	r1, r2 := newRNG(1, 0), newRNG(2, 0)
	same := true
	for i := 0; i < 64; i++ {
		if z.draw(&r1) != z.draw(&r2) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 yield identical Zipf draw sequences")
	}
}

// TestRNGStreamsIndependentOfSiblings: a client's stream depends only
// on (seed, client id), never on how many clients exist — the property
// that keeps event replay stable however the calendar interleaves pops.
func TestRNGStreamsIndependentOfSiblings(t *testing.T) {
	a := newRNG(99, 7)
	b := newRNG(99, 7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatalf("draw %d diverged for identical (seed, id)", i)
		}
	}
	c, d := newRNG(99, 7), newRNG(99, 8)
	distinct := false
	for i := 0; i < 16; i++ {
		if c.next() != d.next() {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("adjacent client ids share a stream")
	}
}

// refHeap is the engine's former scheduler, kept as the calendar's order
// oracle: one binary min-heap per client-ID shard (≤ 64 of them), pop =
// the least shard head by (due, client).
type refHeap struct {
	shards [][]event
	mask   uint32
	size   int
}

func newRefHeap(n int) *refHeap {
	shards := 1
	for shards < 64 && shards*2 <= n {
		shards *= 2
	}
	return &refHeap{shards: make([][]event, shards), mask: uint32(shards - 1)}
}

func (h *refHeap) Push(e event) {
	s := append(h.shards[e.client&h.mask], e)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if cmpEvent(s[i], s[parent]) >= 0 {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	h.shards[e.client&h.mask] = s
	h.size++
}

func (h *refHeap) Pop() (event, bool) {
	if h.size == 0 {
		return event{}, false
	}
	best := -1
	for i, s := range h.shards {
		if len(s) > 0 && (best < 0 || cmpEvent(s[0], h.shards[best][0]) < 0) {
			best = i
		}
	}
	s := h.shards[best]
	e := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && cmpEvent(s[l], s[m]) < 0 {
			m = l
		}
		if r < last && cmpEvent(s[r], s[m]) < 0 {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	h.shards[best] = s
	h.size--
	return e, true
}

// TestEventHeapTotalOrder: with one pending event per client, the
// calendar pops in (due, client) order whatever the push order, and a
// popped client re-pushed later is popped again in its place.
func TestEventHeapTotalOrder(t *testing.T) {
	const n, pops = 1000, 20_000
	c := newCalendar(n, 1<<20)
	r := newRNG(5, 0)
	for i := range c.clients {
		c.Push(uint32(i), int64(r.intn(1<<20)))
	}
	if c.size != n {
		t.Fatalf("calendar holds %d events, want %d", c.size, n)
	}
	var prev event
	for i := 0; i < pops; i++ {
		ev, ok := c.Pop()
		if !ok {
			t.Fatalf("calendar dry after %d pops, want %d", i, pops)
		}
		if i > 0 && cmpEvent(ev, prev) < 0 {
			t.Fatalf("pop %d out of order: %+v after %+v", i, ev, prev)
		}
		prev = ev
		c.Push(ev.client, ev.due+int64(r.intn(1<<21)))
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Pop(); !ok {
			t.Fatalf("calendar dry after %d of %d pending pops", i, n)
		}
	}
	if _, ok := c.Pop(); ok {
		t.Fatal("pop succeeded on an empty calendar")
	}
}

// TestCalendarMatchesReferenceHeap replays seeded, interleaved push/pop
// sequences through the calendar and the reference heap and requires
// identical pops: many clients sharing a due time, pushes into the
// active bucket (and before it), events a lap or more ahead, laps with
// nothing due, at 1 and 2^20 clients.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	cases := []struct {
		name    string
		clients int
		meanGap float64 // ns; sets the bucket width and ring size
		steps   int
		far     int // percent of pushes five or more laps ahead
	}{
		{"one-client", 1, 1e9, 2_000, 3},
		{"small", 64, 1e6, 50_000, 3},
		{"sparse", 16, 1e6, 20_000, 70},
		{"million", 1 << 20, 1e10, 300_000, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCalendar(tc.clients, tc.meanGap)
			width := int64(1) << c.shift
			lap := width * (c.mask + 1)
			ref := newRefHeap(tc.clients)
			r := newRNG(int64(tc.clients), 1)
			// gap spans the shapes the calendar treats differently.
			gap := func() int64 {
				if r.intn(100) < tc.far {
					return 5*lap + int64(r.intn(int(min(lap, 1<<40)))) // empty laps in between
				}
				switch k := r.intn(100); {
				case k < 10:
					return 0 // a tie with the due just popped
				case k < 40:
					return int64(r.intn(int(width))) // the active bucket, often
				case k < 85:
					return int64(r.intn(int(min(lap, 1<<40))))
				default:
					return lap + int64(r.intn(int(min(3*lap, 1<<40)))) // laps ahead
				}
			}
			idle := make([]uint32, 0, tc.clients)
			for i := 0; i < tc.clients; i++ {
				if r.intn(4) == 0 {
					idle = append(idle, uint32(i))
					continue
				}
				// Coarse initial dues: many clients share one.
				due := int64(r.intn(4096)) * (lap / 4096)
				c.Push(uint32(i), due)
				ref.Push(event{due: due, client: uint32(i)})
			}
			var now int64
			for step := 0; step < tc.steps; step++ {
				if len(idle) > 0 && r.intn(3) == 0 {
					// Wake an idle client; now and then one behind the clock.
					j := r.intn(len(idle))
					id := idle[j]
					idle[j] = idle[len(idle)-1]
					idle = idle[:len(idle)-1]
					due := now + gap()
					if r.intn(50) == 0 {
						due = now - int64(r.intn(int(width)))
					}
					c.Push(id, due)
					ref.Push(event{due: due, client: id})
					continue
				}
				got, gok := c.Pop()
				want, wok := ref.Pop()
				if got != want || gok != wok {
					t.Fatalf("step %d: calendar popped %+v/%v, reference %+v/%v", step, got, gok, want, wok)
				}
				if !gok {
					continue
				}
				now = got.due
				if r.intn(8) == 0 {
					idle = append(idle, got.client)
					continue
				}
				due := now + gap()
				c.Push(got.client, due)
				ref.Push(event{due: due, client: got.client})
			}
			for {
				got, gok := c.Pop()
				want, wok := ref.Pop()
				if got != want || gok != wok {
					t.Fatalf("drain: calendar popped %+v/%v, reference %+v/%v", got, gok, want, wok)
				}
				if !gok {
					break
				}
			}
		})
	}
}

// TestStubCacheServesRepeats: with a tiny domain universe, the six
// queries a client makes in one stub TTL repeat names, and the repeats
// must be absorbed client-side.
func TestStubCacheServesRepeats(t *testing.T) {
	tgt := &fakeTarget{}
	eng, err := New(Config{
		Clients: 500, Model: ModelOpen, Seed: 3,
		Domains: testDomains(2), Duration: 10 * time.Minute,
	}, testClock(), tgt)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.StubHits == 0 {
		t.Fatal("no stub-cache hits over a 4-domain universe")
	}
	exchanges := sum.Queries - sum.StubHits
	if sum.StubHits <= exchanges {
		t.Fatalf("stub hits %d should dominate fleet exchanges %d over a 2-domain universe",
			sum.StubHits, exchanges)
	}
	if exchanges != uint64(tgt.exchanges) {
		t.Fatalf("summary counts %d fleet exchanges, target saw %d", exchanges, tgt.exchanges)
	}
}

// TestErrorsNotCached: failed exchanges must count as errors and leave
// the stub cache cold, so clients keep retrying the serving path.
func TestErrorsNotCached(t *testing.T) {
	tgt := &fakeTarget{fail: true}
	eng, err := New(Config{
		Clients: 250, Model: ModelOpen, Seed: 3,
		Domains: testDomains(2), Duration: 2 * time.Minute,
	}, testClock(), tgt)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Errors != sum.Queries || sum.Errors == 0 {
		t.Fatalf("errors %d, queries %d: every query should fail and none cache", sum.Errors, sum.Queries)
	}
	if sum.StubHits != 0 {
		t.Fatalf("%d stub hits after nothing but failures", sum.StubHits)
	}
}

// TestMaxQueriesCapsRun: the budget knob must stop the run at exactly
// the cap, with the clock moved over the virtual span covered so far.
func TestMaxQueriesCapsRun(t *testing.T) {
	clock := testClock()
	start := clock.Now()
	eng, err := New(Config{
		Clients: 10_000, Model: ModelOpen, Seed: 9,
		Domains: testDomains(50), MaxQueries: 2_500,
	}, clock, &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Queries != 2_500 {
		t.Fatalf("ran %d queries, want exactly the 2500 cap", sum.Queries)
	}
	if !clock.Now().After(start) {
		t.Fatalf("clock at %v after the run, want past the start %v", clock.Now(), start)
	}
}

// TestConfigValidation pins the constructor's error surface.
func TestConfigValidation(t *testing.T) {
	clock := testClock()
	ok := Config{Clients: 1, Domains: testDomains(1), Duration: time.Second}
	cases := []struct {
		name   string
		mutate func(*Config)
		target Exchanger
	}{
		{"zero clients", func(c *Config) { c.Clients = 0 }, &fakeTarget{}},
		{"no domains", func(c *Config) { c.Domains = nil }, &fakeTarget{}},
		{"no horizon", func(c *Config) { c.Duration = 0; c.MaxQueries = 0 }, &fakeTarget{}},
		{"negative zipf exponent", func(c *Config) { c.ZipfS = -1 }, &fakeTarget{}},
		{"mix without preference support", func(c *Config) {
			c.Mix = transport.Mix{DoH: 1, DoT: 1}
		}, &fakeTarget{}},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := New(cfg, clock, tc.target); err == nil {
			t.Errorf("%s: constructor accepted an invalid config", tc.name)
		}
	}
	if _, err := New(ok, nil, &fakeTarget{}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := New(ok, clock, nil); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := New(ok, clock, &fakeTarget{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// prefTarget is a fakeTarget that also takes protocol preferences.
type prefTarget struct{ fakeTarget }

func (p *prefTarget) ExchangePreferring(q *dnswire.Message, _ transport.Protocol) (*dnswire.Message, error) {
	return p.Exchange(q)
}

// TestPreferencesFollowMixAssign: the preferences dealt from one cycle of
// the mix are Mix.Assign over the whole population.
func TestPreferencesFollowMixAssign(t *testing.T) {
	for _, mix := range []transport.Mix{{DoH: 2, DoT: 1, DoQ: 1}, {DoH: 60, DoT: 30, DoQ: 10}} {
		const n = 1_000
		e, err := New(Config{Clients: n, Domains: testDomains(10), Duration: time.Second, Mix: mix},
			testClock(), &prefTarget{})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range mix.Assign(n) {
			if got := transport.Protocol(e.cal.clients[i].pref); got != want {
				t.Fatalf("%v: client %d prefers %v, Assign says %v", mix, i, got, want)
			}
		}
	}
}
