package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// newAnomalyFleet stands up a serve-stale-capable fleet with the anomaly
// tier on: head sampling at the given rate plus tail retention, and a
// flight recorder wired through client and frontends.
func newAnomalyFleet(t *testing.T, n, sampleEvery int) (*Fleet, *stubRecursor, *simnet.Network, *simnet.Clock, *obs.Tracer, *obs.Recorder) {
	t.Helper()
	net, clock := testNet()
	tracer := obs.NewTracer(clock, obs.TraceConfig{
		SampleEvery: sampleEvery,
		Tail:        &obs.TailConfig{TopK: 8},
	})
	recorder := obs.NewRecorder(clock, 256)
	recursor := &stubRecursor{ttl: 60}
	fl := NewFleet(net, clock, FleetConfig{
		Seed:            1,
		Cache:           CacheConfig{Shards: 4, ShardCapacity: 64, StaleWindow: time.Hour},
		FailureCooldown: 5 * time.Minute,
		Tracer:          tracer,
		Recorder:        recorder,
	})
	for i := 0; i < n; i++ {
		fl.Add(ProtoDoH, fmt.Sprintf("fe%d", i), recursor, frontendAddr(i))
	}
	return fl, recursor, net, clock, tracer, recorder
}

// TestChaosFlapTailCatchesWhatHeadMisses is the anomaly-tier chaos
// drill: a recursor flap forces stale serves at arrival indexes a
// 1-in-16 head sampler skips, and the tail ring retains exactly
// those exchanges. This is the retention gap tail sampling exists to
// close — head sampling at 1-in-16 sees only the healthy warm-up
// exchange.
func TestChaosFlapTailCatchesWhatHeadMisses(t *testing.T) {
	fl, recursor, _, clock, tracer, recorder := newAnomalyFleet(t, 1, 16)
	client := fl.Client

	// Arrival 1 (head-sampled): a healthy exchange populates the cache.
	if _, err := client.Query("flap.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	// Cross TTL expiry into the stale window, then kill the recursor.
	clock.Advance(90 * time.Second)
	recursor.fail = true

	// Arrivals 2..5: every exchange is a flap-window stale serve — none
	// lands on a head-sampling index (1, 17, 33, ...).
	for i := 0; i < 4; i++ {
		resp, err := client.Query("flap.test", dnswire.TypeA, false)
		if err != nil {
			t.Fatalf("stale exchange %d: %v", i, err)
		}
		if resp == nil {
			t.Fatalf("stale exchange %d: no answer", i)
		}
	}
	if got := client.StaleAnswers(); got != 4 {
		t.Fatalf("stale answers = %d, want 4", got)
	}

	// Head ring: only the warm-up exchange, with no stale flag.
	if tracer.Len() != 1 {
		t.Fatalf("head ring len = %d, want 1 (warm-up only)", tracer.Len())
	}
	for _, tr := range tracer.Slowest(tracer.Len()) {
		if tr.Flags&obs.FlagStale != 0 {
			t.Fatalf("head ring caught a stale exchange: %+v", tr)
		}
	}
	// Tail ring: all four flap-window stale serves.
	tail := tracer.Tail()
	if len(tail) != 4 {
		t.Fatalf("tail ring len = %d, want the 4 stale exchanges", len(tail))
	}
	for i, tr := range tail {
		if tr.Flags&obs.FlagStale == 0 {
			t.Fatalf("tail[%d] not stale-flagged: %+v", i, tr)
		}
		if tr.Name != "flap.test." {
			t.Fatalf("tail[%d] name = %q", i, tr.Name)
		}
	}

	// Flight recorder: the live window holds the client's stale serves
	// beside the frontend-side flap marker.
	kinds := map[string]int{}
	for _, e := range recorder.Window(time.Time{}, clock.Now()) {
		kinds[e.Kind]++
	}
	if kinds["client.stale"] != 4 || kinds["frontend.dead"] == 0 {
		t.Fatalf("event window = %v, want 4 client.stale and the frontend.dead flap marker", kinds)
	}
}

// TestSampledAnomalyKeepsItsSpanTree pins how span trees for retained
// anomalies are obtained now that unsampled exchanges record no spans:
// head-sample every exchange (what dohserve -trace N -tail K composes)
// and the stale serve sits in the tail ring as the very trace the head
// ring holds, spans and all.
func TestSampledAnomalyKeepsItsSpanTree(t *testing.T) {
	fl, recursor, _, clock, tracer, _ := newAnomalyFleet(t, 1, 1)
	if _, err := fl.Client.Query("flap.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Second)
	recursor.fail = true
	if _, err := fl.Client.Query("flap.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	tail := tracer.Tail()
	if len(tail) != 1 || tail[0].Flags != obs.FlagStale {
		t.Fatalf("tail ring = %+v, want the one stale serve", tail)
	}
	var inHead bool
	for _, tr := range tracer.Slowest(tracer.Len()) {
		inHead = inHead || tr == tail[0]
	}
	if !inHead {
		t.Fatal("the retained anomaly is not the trace the head ring holds")
	}
	if tree := tail[0].Tree(); !strings.Contains(tree, "stale.serve") || !strings.Contains(tree, "[stale]") {
		t.Fatalf("retained anomaly lost its span tree:\n%s", tree)
	}
}

// TestTailRetentionCostsUnsampledExchangesNothing is the anomaly tier's
// allocation budget: with tail retention on, an exchange that head
// sampling skips and that is no anomaly must allocate exactly what it
// does with no tracer at all, and leave nothing in either ring. Warm
// serial exchanges on a single-protocol fleet keep the figure exact.
func TestTailRetentionCostsUnsampledExchangesNothing(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		measure := func(tracer *obs.Tracer) float64 {
			client, _, _, _, _ := newTestFleet(t, 2, BalanceRoundRobin, proto)
			client.Tracer = tracer
			q := dnswire.NewQuery(1, "warm.test", dnswire.TypeA, false)
			// Warm-up: both members dialled and the answer cached.
			for i := 0; i < 4; i++ {
				if _, err := client.Exchange(q); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(200, func() { client.Exchange(q) })
		}
		tracer := obs.NewTracer(nil, obs.TraceConfig{Tail: &obs.TailConfig{}})
		bare, tiered := measure(nil), measure(tracer)
		if tiered != bare {
			t.Errorf("%s: %v allocs per exchange with the tail tracer, %v without", proto, tiered, bare)
		}
		if tracer.Len() != 0 || len(tracer.Tail()) != 0 {
			t.Errorf("%s: head ring %d, tail ring %d after healthy exchanges, want 0 and 0",
				proto, tracer.Len(), len(tracer.Tail()))
		}
	}
}

// TestRecorderPoolChurnEvents pins the pool's flight-recorder event: a
// downed frontend address produces pool.cooldown each time it is benched,
// and a member that keeps failing stays in the pool.
func TestRecorderPoolChurnEvents(t *testing.T) {
	net, clock := testNet()
	recorder := obs.NewRecorder(clock, 64)
	recursor := &stubRecursor{ttl: 60}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Seed:     1,
		Cache:    CacheConfig{Shards: 2, ShardCapacity: 16},
		Recorder: recorder,
	})
	fl.Add(ProtoDoH, "fe0", recursor, frontendAddr(0))
	fl.Add(ProtoDoH, "fe1", recursor, frontendAddr(1))

	net.SetAddrDown(frontendAddr(0).Addr(), true)
	// Each exchange that attempts fe0 benches it once; the cooldown
	// expires between rounds so fe0 is attempted again.
	for i := 0; i < 4; i++ {
		if _, err := fl.Client.Query(fmt.Sprintf("q%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
		clock.Advance(2 * DefaultCooldown)
	}

	kinds := map[string]int{}
	for _, e := range recorder.Window(time.Time{}, clock.Now()) {
		kinds[e.Kind]++
	}
	failures := fl.Pool.Stats()[0].Failures
	if failures < 2 || kinds["pool.cooldown"] != int(failures) {
		t.Fatalf("fe0 failed %d times with %v recorded, want one pool.cooldown per failure and at least two",
			failures, kinds)
	}
	if fl.Pool.size() != 2 {
		t.Fatalf("pool len = %d, want 2: a failing member is benched, never removed", fl.Pool.size())
	}
}

// TestPoolScorecard pins the health-scorecard columns: the
// consecutive-failure streak and the cooldown occupancy, including the
// extension (not double-billing) rule for mid-bench re-failures and the
// forgiveness rule when a benched member serves successfully.
func TestPoolScorecard(t *testing.T) {
	_, clock := testNet()
	p := newPool(clock, BalanceRoundRobin, 1) // DefaultCooldown is a minute
	u := p.Add("fe0", frontendAddr(0), ProtoDoH)

	p.markFailed(u)
	st := p.Stats()[0]
	if st.ConsecFails != 1 || st.CooldownTotal != time.Minute {
		t.Fatalf("after one failure: streak=%d occupancy=%v", st.ConsecFails, st.CooldownTotal)
	}

	// Re-failure 30s into the bench extends the window by 30s — the
	// occupancy charges the extension, not a second full cooldown.
	clock.Advance(30 * time.Second)
	p.markFailed(u)
	st = p.Stats()[0]
	if st.ConsecFails != 2 || st.CooldownTotal != 90*time.Second {
		t.Fatalf("after mid-bench re-failure: streak=%d occupancy=%v, want 2 and 1m30s", st.ConsecFails, st.CooldownTotal)
	}

	// A successful exchange 30s later forgives the remaining 30s and
	// resets the streak.
	clock.Advance(30 * time.Second)
	p.observeRTT(u, 5*time.Millisecond)
	st = p.Stats()[0]
	if st.ConsecFails != 0 || st.CooldownTotal != time.Minute {
		t.Fatalf("after recovery: streak=%d occupancy=%v, want 0 and 1m", st.ConsecFails, st.CooldownTotal)
	}
	if st.Down {
		t.Fatal("recovered member still reported down")
	}
}
