package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
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

// TestSameSeedIdenticalRuns is the engine's determinism contract: two
// runs of the same (seed, clock start, config) must replay the exact
// same event stream — same totals, same digest, same query-name
// sequence at the target.
func TestSameSeedIdenticalRuns(t *testing.T) {
	for _, model := range []Model{ModelClosed, ModelOpen} {
		cfg := Config{
			Clients: 2_000, Model: model, Seed: 41,
			Domains: testDomains(300), Duration: 5 * time.Minute,
			OpenRate: 0.1, Think: 10 * time.Second,
			StubTTL: 30 * time.Second, Interval: time.Minute,
			Diurnal: Diurnal{Amplitude: 0.5, Peak: 20 * time.Hour},
			Crowds: []FlashCrowd{{
				At: 2 * time.Minute, Duration: 30 * time.Second,
				Multiplier: 10, Domain: "site0007.example", Fraction: 0.9,
			}},
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
			t.Fatalf("%v: same seed diverged:\n  %+v\n  %+v", model, a, b)
		}
		if a.Digest == 0 || a.Queries == 0 {
			t.Fatalf("%v: degenerate run: %+v", model, a)
		}
		if len(ta.names) != len(tb.names) {
			t.Fatalf("%v: query-name sequences differ in length", model)
		}
		for i := range ta.names {
			if ta.names[i] != tb.names[i] {
				t.Fatalf("%v: query %d name %q vs %q", model, i, ta.names[i], tb.names[i])
			}
		}
		if got := a.Queries - a.StubHits; got != a.FleetExchanges {
			t.Fatalf("%v: Queries-StubHits = %d, FleetExchanges = %d", model, got, a.FleetExchanges)
		}
	}
}

// TestDifferentSeedsDistinctDraws: distinct seeds must give every
// client a distinct RNG stream, so the Zipf draw sequences — and with
// them the digests — diverge.
func TestDifferentSeedsDistinctDraws(t *testing.T) {
	base := Config{
		Clients: 500, Model: ModelOpen, Domains: testDomains(200),
		Duration: 2 * time.Minute, OpenRate: 0.2,
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
// that keeps event replay stable however the heap interleaves pops.
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

// TestEventHeapTotalOrder: pops must come out ordered by (due, client)
// whatever the push order, across every shard.
func TestEventHeapTotalOrder(t *testing.T) {
	h := newEventHeap(1000)
	r := newRNG(5, 0)
	const n = 5000
	for i := 0; i < n; i++ {
		h.Push(event{due: int64(r.intn(1 << 20)), client: uint32(r.intn(1000))})
	}
	if h.Len() != n {
		t.Fatalf("heap length %d, want %d", h.Len(), n)
	}
	var prev event
	for i := 0; i < n; i++ {
		ev, ok := h.Pop()
		if !ok {
			t.Fatalf("heap dry after %d pops, want %d", i, n)
		}
		if i > 0 && ev.less(prev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, ev, prev)
		}
		prev = ev
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop succeeded on an empty heap")
	}
}

// TestStubCacheServesRepeats: with a long stub TTL and a tiny domain
// universe, repeat draws must be absorbed client-side.
func TestStubCacheServesRepeats(t *testing.T) {
	tgt := &fakeTarget{}
	eng, err := New(Config{
		Clients: 100, Model: ModelOpen, Seed: 3,
		Domains: testDomains(4), Duration: 5 * time.Minute,
		OpenRate: 0.5, StubTTL: time.Hour, StubSlots: 4,
	}, testClock(), tgt)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.StubHits == 0 {
		t.Fatal("no stub-cache hits over a 4-domain universe")
	}
	if sum.StubHits <= sum.FleetExchanges {
		t.Fatalf("stub hits %d should dominate fleet exchanges %d with an hour-long stub TTL",
			sum.StubHits, sum.FleetExchanges)
	}
	if int(sum.FleetExchanges) != tgt.exchanges {
		t.Fatalf("summary counts %d fleet exchanges, target saw %d", sum.FleetExchanges, tgt.exchanges)
	}
}

// TestErrorsNotCached: failed exchanges must count as errors and leave
// the stub cache cold, so clients keep retrying the serving path.
func TestErrorsNotCached(t *testing.T) {
	tgt := &fakeTarget{fail: true}
	eng, err := New(Config{
		Clients: 50, Model: ModelOpen, Seed: 3,
		Domains: testDomains(2), Duration: 2 * time.Minute,
		OpenRate: 0.5, StubTTL: time.Hour,
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
// the cap with the virtual span covered so far.
func TestMaxQueriesCapsRun(t *testing.T) {
	eng, err := New(Config{
		Clients: 1000, Model: ModelOpen, Seed: 9,
		Domains: testDomains(50), MaxQueries: 2_500, OpenRate: 1,
	}, testClock(), &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Queries != 2_500 {
		t.Fatalf("ran %d queries, want exactly the 2500 cap", sum.Queries)
	}
	if sum.Virtual <= 0 {
		t.Fatalf("virtual span %v, want positive", sum.Virtual)
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
		{"amplitude", func(c *Config) { c.Diurnal.Amplitude = 0.99 }, &fakeTarget{}},
		{"crowd multiplier", func(c *Config) {
			c.Crowds = []FlashCrowd{{Multiplier: 0}}
		}, &fakeTarget{}},
		{"crowd fraction", func(c *Config) {
			c.Crowds = []FlashCrowd{{Multiplier: 2, Fraction: 1.5}}
		}, &fakeTarget{}},
		{"crowd domain outside universe", func(c *Config) {
			c.Crowds = []FlashCrowd{{Multiplier: 2, Domain: "absent.example"}}
		}, &fakeTarget{}},
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

// TestModelParseRoundTrip covers the flag-surface parser.
func TestModelParseRoundTrip(t *testing.T) {
	for _, m := range []Model{ModelClosed, ModelOpen} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("thundering"); err == nil {
		t.Error("ParseModel accepted an unknown model")
	}
}

// TestCrowdRecorderMarkers pins the flight-recorder crowd markers: one
// start and one end event per configured crowd, stamped at the crowd's
// config-derived virtual boundaries, and counted in the stable view.
func TestCrowdRecorderMarkers(t *testing.T) {
	clock := testClock()
	start := clock.Now()
	rec := obs.NewRecorder(clock, 32)
	cfg := Config{
		Clients: 50, Model: ModelOpen, Seed: 7,
		Domains: testDomains(20), Duration: 10 * time.Minute,
		Crowds: []FlashCrowd{{
			At: 2 * time.Minute, Duration: 3 * time.Minute,
			Multiplier: 5, Domain: "site0001.example", Fraction: 0.5,
		}},
		Recorder: rec,
	}
	e, err := New(cfg, clock, &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	var got []obs.Event
	for _, ev := range rec.Window(start, clock.Now()) {
		if ev.Kind == "workload.crowd.start" || ev.Kind == "workload.crowd.end" {
			got = append(got, ev)
		}
	}
	if len(got) != 2 {
		t.Fatalf("crowd markers = %d, want start+end: %+v", len(got), got)
	}
	if got[0].Kind != "workload.crowd.start" || !got[0].At.Equal(start.Add(2*time.Minute)) {
		t.Fatalf("start marker = %+v, want at %v", got[0], start.Add(2*time.Minute))
	}
	if got[1].Kind != "workload.crowd.end" || !got[1].At.Equal(start.Add(5*time.Minute)) {
		t.Fatalf("end marker = %+v, want at %v", got[1], start.Add(5*time.Minute))
	}
	var domain string
	for _, l := range got[0].Labels {
		if l.Key == "domain" {
			domain = l.Value
		}
	}
	if domain != "site0001.example." {
		t.Fatalf("start marker domain = %q", domain)
	}
	stable := map[string]uint64{}
	for _, c := range rec.StableCounts() {
		stable[c.Kind] += c.Count
	}
	if stable["workload.crowd.start"] != 1 || stable["workload.crowd.end"] != 1 {
		t.Fatalf("stable counts = %v, want one start and one end marker", stable)
	}
}
