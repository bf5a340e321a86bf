package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// latencyTable pins a fixed virtual RTT per frontend index, keyed by
// address — the deterministic knob every racing/hedging boundary test
// turns.
func latencyTable(d map[int]time.Duration, fallback time.Duration) func(*Upstream) time.Duration {
	return func(u *Upstream) time.Duration {
		for i, l := range d {
			if u.Addr == frontendAddr(i) {
				return l
			}
		}
		return fallback
	}
}

// raceFleet builds an n-frontend fleet with a race strategy, round-robin
// balancing (query 1 orders candidates 0,1,…,n-1), and a per-frontend
// latency table.
func raceFleet(t *testing.T, stagger time.Duration, lat map[int]time.Duration, protos ...Protocol) (*Client, *Fleet, *stubRecursor) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Strategy: StrategyConfig{Kind: StrategyRace, RaceStagger: stagger},
		Seed:     1,
		Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
		Latency:  latencyTable(lat, 4*time.Millisecond),
	})
	for i, p := range protos {
		fl.Add(p, fmt.Sprintf("fe%d", i), recursor, frontendAddr(i))
	}
	return fl.Client, fl, recursor
}

// TestSerialFailoverExplicitMatchesDefault pins that the default client
// and an explicit serial StrategyConfig are the same policy: identical
// answers, identical pool accounting, for the same scripted failure
// scenario.
func TestSerialFailoverExplicitMatchesDefault(t *testing.T) {
	type snap struct {
		answers []string
		pool    []UpstreamStats
	}
	run := func(strategy *StrategyConfig) snap {
		client, fl, _, net, _ := newTestFleet(t, 3, BalanceRoundRobin)
		if strategy != nil {
			client.Strategy = *strategy
		}
		// A fixed latency model keeps the pool's RTT bookkeeping out of
		// wall-clock noise so the snapshots compare byte-for-byte.
		client.Latency = func(*Upstream) time.Duration { return 4 * time.Millisecond }
		net.SetAddrDown(frontendAddr(0).Addr(), true)
		var s snap
		for i := 0; i < 6; i++ {
			m, err := client.Query(fmt.Sprintf("d%d.test", i), dnswire.TypeHTTPS, false)
			if err != nil {
				t.Fatal(err)
			}
			s.answers = append(s.answers, fmt.Sprintf("%v/%d", m.RCode, len(m.Answer)))
		}
		s.pool = fl.Pool.Stats()
		return s
	}
	def := run(nil)
	for name, strategy := range map[string]*StrategyConfig{
		"explicit":    {Kind: StrategySerial},
		"zero-config": {},
	} {
		got := run(strategy)
		if fmt.Sprint(got) != fmt.Sprint(def) {
			t.Errorf("%s serial diverged from default:\n got %v\nwant %v", name, got, def)
		}
	}
}

// TestRaceStaggerBoundary pins the happy-eyeballs timer edge: a primary
// whose answer lands exactly at the stagger deadline cancels the timer —
// the partner never launches — while one a nanosecond later races.
func TestRaceStaggerBoundary(t *testing.T) {
	const stagger = 5 * time.Millisecond
	t.Run("at-edge-no-race", func(t *testing.T) {
		client, fl, _ := raceFleet(t, stagger,
			map[int]time.Duration{0: stagger, 1: time.Millisecond},
			ProtoDoH, ProtoDoT)
		if _, err := client.Query("edge.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
		if got := fl.Frontends[1].Stats().Served; got != 0 {
			t.Errorf("partner served %d at the stagger edge, want 0 (timer cancelled)", got)
		}
		if st := fl.StrategyStats(); st.Races != 0 || st.Wasted != 0 {
			t.Errorf("races=%d wasted=%d for an on-time primary, want 0/0", st.Races, st.Wasted)
		}
	})
	t.Run("past-edge-races", func(t *testing.T) {
		client, fl, _ := raceFleet(t, stagger,
			map[int]time.Duration{0: stagger + time.Nanosecond, 1: time.Millisecond},
			ProtoDoH, ProtoDoT)
		if _, err := client.Query("late.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
		if got := fl.Frontends[1].Stats().Served; got != 1 {
			t.Errorf("partner served %d past the stagger edge, want 1", got)
		}
		st := fl.StrategyStats()
		if st.Races != 1 {
			t.Errorf("races=%d, want 1", st.Races)
		}
		// The primary missed the deadline by a nanosecond but still
		// completes first (5ms+1ns vs the partner's 5ms stagger + 3×1ms
		// fresh-DoT cost = 8ms): it wins, and the in-flight partner is
		// cancelled — launched, wasted, never consumed.
		if st.WinsByProto[ProtoDoH] != 1 {
			t.Errorf("winner distribution %v, want the barely-late DoH primary", st.WinsByProto)
		}
		if st.LosersCancelled != 1 || st.Wasted != 1 {
			t.Errorf("cancelled=%d wasted=%d, want 1/1", st.LosersCancelled, st.Wasted)
		}
	})
	t.Run("slow-primary-loses", func(t *testing.T) {
		// Primary at 20ms, partner completing at 5ms+3×1ms=8ms: the
		// race flips and the cross-protocol partner wins.
		client, fl, _ := raceFleet(t, stagger,
			map[int]time.Duration{0: 20 * time.Millisecond, 1: time.Millisecond},
			ProtoDoH, ProtoDoT)
		if _, err := client.Query("slow.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
		st := fl.StrategyStats()
		if st.WinsByProto[ProtoDoT] != 1 {
			t.Errorf("winner distribution %v, want the DoT partner", st.WinsByProto)
		}
		if st.Races != 1 || st.LosersCancelled != 1 || st.Wasted != 1 {
			t.Errorf("races=%d cancelled=%d wasted=%d, want 1/1/1",
				st.Races, st.LosersCancelled, st.Wasted)
		}
	})
}

// TestRacePartnerIsCrossProtocol pins partner selection: the race pairs
// the primary with the first candidate speaking a different protocol,
// skipping same-protocol siblings.
func TestRacePartnerIsCrossProtocol(t *testing.T) {
	client, fl, _ := raceFleet(t, time.Millisecond,
		map[int]time.Duration{0: 10 * time.Millisecond, 1: 10 * time.Millisecond, 2: 2 * time.Millisecond},
		ProtoDoH, ProtoDoH, ProtoDoQ)
	if _, err := client.Query("xproto.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if got := fl.Frontends[1].Stats().Served; got != 0 {
		t.Errorf("same-protocol sibling served %d, want 0 (skipped as race partner)", got)
	}
	if got := fl.Frontends[2].Stats().Served; got != 1 {
		t.Errorf("cross-protocol partner served %d, want 1", got)
	}
}

// TestRaceBothFailFallsThrough pins the failure edges: a primary whose
// dial fails synchronously is ordinary failover (no race started, no
// stagger waited out — RFC 8305 moves on immediately), a race that did
// fire and lost both attempts falls through to the remaining candidates
// serially, and a fully-dark fleet errors.
func TestRaceBothFailFallsThrough(t *testing.T) {
	t.Run("sync-failure-is-failover", func(t *testing.T) {
		client, fl, _ := raceFleet(t, time.Millisecond, nil,
			ProtoDoH, ProtoDoT, ProtoDoQ)
		net := client.Net
		net.SetAddrDown(frontendAddr(0).Addr(), true)
		net.SetAddrDown(frontendAddr(1).Addr(), true)
		if _, err := client.Query("survivor.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatalf("query failed despite a healthy third candidate: %v", err)
		}
		if got := fl.Frontends[2].Stats().Served; got != 1 {
			t.Errorf("surviving candidate served %d, want 1", got)
		}
		// The dead primary failed before reaching the wire: the partner
		// timer never ran, so no race is counted and nothing is wasted.
		if st := fl.StrategyStats(); st.Races != 0 || st.Wasted != 0 {
			t.Errorf("races=%d wasted=%d after a synchronous primary failure, want 0/0",
				st.Races, st.Wasted)
		}
		downs := 0
		for _, st := range fl.Pool.Stats() {
			if st.Down {
				downs++
			}
		}
		if downs != 2 {
			t.Errorf("%d members benched after the failed exchange, want 2", downs)
		}
		net.SetAddrDown(frontendAddr(2).Addr(), true)
		if _, err := client.Query("dark.test", dnswire.TypeHTTPS, false); err == nil {
			t.Error("query succeeded with the whole fleet down")
		}
	})
	t.Run("fired-race-loses-both", func(t *testing.T) {
		// The primary SERVFAILs slower than the stagger (the timer fired
		// first, so this IS a race) and the partner's address is dark:
		// the exchange falls through to the healthy third candidate.
		net, clock := testNet()
		fl := NewFleet(net, clock, FleetConfig{
			Balance:  BalanceRoundRobin,
			Strategy: StrategyConfig{Kind: StrategyRace, RaceStagger: time.Millisecond},
			Seed:     1,
			Latency:  latencyTable(nil, 10*time.Millisecond),
		})
		fl.Add(ProtoDoH, "fe0", servFailRecursor{}, frontendAddr(0))
		fl.Add(ProtoDoT, "fe1", &stubRecursor{ttl: 300}, frontendAddr(1))
		fl.Add(ProtoDoQ, "fe2", &stubRecursor{ttl: 300}, frontendAddr(2))
		net.SetAddrDown(frontendAddr(1).Addr(), true)
		resp, err := fl.Client.Query("late-fail.test", dnswire.TypeHTTPS, false)
		if err != nil {
			t.Fatalf("query failed despite a healthy third candidate: %v", err)
		}
		if resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("rcode = %v, want the third candidate's answer", resp.RCode)
		}
		if st := fl.StrategyStats(); st.Races != 1 {
			t.Errorf("races=%d, want 1 (the stagger timer fired before the SERVFAIL landed)", st.Races)
		}
	})
	t.Run("servfail-inside-stagger-is-failover", func(t *testing.T) {
		// The primary's SERVFAIL lands at 1ms, inside the 5ms stagger: its
		// outcome is known before the timer fires, so the partner is the
		// next serial attempt, not a racer.
		net, clock := testNet()
		fl := NewFleet(net, clock, FleetConfig{
			Balance:  BalanceRoundRobin,
			Strategy: StrategyConfig{Kind: StrategyRace, RaceStagger: 5 * time.Millisecond},
			Seed:     1,
			Latency:  latencyTable(nil, time.Millisecond),
		})
		fl.Add(ProtoDoH, "fe0", servFailRecursor{}, frontendAddr(0))
		fl.Add(ProtoDoT, "fe1", &stubRecursor{ttl: 300}, frontendAddr(1))
		resp, err := fl.Client.Query("early-fail.test", dnswire.TypeHTTPS, false)
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeNoError {
			t.Errorf("rcode = %v, want the partner's NOERROR", resp.RCode)
		}
		if st := fl.StrategyStats(); st.Races != 0 || st.Wasted != 0 || st.Attempts != 2 {
			t.Errorf("races=%d wasted=%d attempts=%d, want 0/0/2", st.Races, st.Wasted, st.Attempts)
		}
	})
}

// TestRaceSkipsBenchedPartner pins the cooldown interaction: once the
// only cross-protocol member is benched, races fall back to a healthy
// same-protocol partner instead of re-dialing the benched member — a
// duplicate attempt against a known-bad upstream wastes load and extends
// its bench.
func TestRaceSkipsBenchedPartner(t *testing.T) {
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Strategy: StrategyConfig{Kind: StrategyRace, RaceStagger: time.Millisecond},
		Seed:     1,
		Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
		Latency:  latencyTable(map[int]time.Duration{0: 10 * time.Millisecond}, 2*time.Millisecond),
	})
	fl.Add(ProtoDoH, "fe0", recursor, frontendAddr(0))
	fl.Add(ProtoDoH, "fe1", recursor, frontendAddr(1))
	fl.Add(ProtoDoT, "fe2", recursor, frontendAddr(2))
	client := fl.Client

	// Every primary misses the 1ms stagger, so every exchange races.
	// The first race picks the DoT member as the cross-protocol partner
	// and benches it (address down, one strike); the following races
	// must fall back to the healthy DoH sibling rather than hand the
	// benched member a second strike.
	net.SetAddrDown(frontendAddr(2).Addr(), true)
	for i := 0; i < 6; i++ {
		if _, err := client.Query(fmt.Sprintf("benched%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range fl.Pool.Stats() {
		if st.Proto == ProtoDoT && st.Failures != 1 {
			t.Errorf("benched DoT member has %d failures, want 1 (only the race that benched it)", st.Failures)
		}
	}
	if st := fl.StrategyStats(); st.Races < 2 {
		t.Errorf("races=%d, want the fallback same-protocol races to keep firing", st.Races)
	}
}

// TestRaceOverMixedFleetWithDoHDown: with every DoH address of a 2:1:1
// mixed fleet dark, racing turns the outage into failover — every
// exchange answers, the DoT and DoQ survivors race each other, and only
// they win.
func TestRaceOverMixedFleetWithDoHDown(t *testing.T) {
	client, fl, _ := raceFleet(t, time.Millisecond, nil, Mix{DoH: 2, DoT: 1, DoQ: 1}.Assign(4)...)
	for i, p := range fl.Stats() {
		if p.Proto == ProtoDoH {
			fl.Net.SetAddrDown(fl.Addrs[i].Addr(), true)
		}
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := client.Query(fmt.Sprintf("dark-doh%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatalf("exchange %d failed with DoT and DoQ up: %v", i, err)
		}
	}
	st := fl.StrategyStats()
	if st.Exchanges != n || client.Errors() != 0 {
		t.Errorf("exchanges=%d errors=%d, want %d/0", st.Exchanges, client.Errors(), n)
	}
	if st.Races == 0 {
		t.Error("no race fired between the DoT and DoQ survivors")
	}
	if doh, dot, doq := st.WinsByProto[ProtoDoH], st.WinsByProto[ProtoDoT], st.WinsByProto[ProtoDoQ]; doh != 0 || dot == 0 || doq == 0 || dot+doq != n {
		t.Errorf("wins doh=%d dot=%d doq=%d, want 0 on DoH and all %d split over DoT and DoQ", doh, dot, doq, n)
	}
}

// TestRaceSingleCandidateDegradesToSerial: nothing to race against.
func TestRaceSingleCandidateDegradesToSerial(t *testing.T) {
	client, fl, _ := raceFleet(t, time.Millisecond,
		map[int]time.Duration{0: 20 * time.Millisecond}, ProtoDoH)
	if _, err := client.Query("solo.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if st := fl.StrategyStats(); st.Races != 0 || st.Attempts != 1 {
		t.Errorf("races=%d attempts=%d for a one-member pool, want 0/1", st.Races, st.Attempts)
	}
}

// hedgeFleet builds a two-frontend same-protocol fleet under the hedge
// strategy with a scripted latency sequence (one draw per dial).
func hedgeFleet(t *testing.T, quantile float64, seq []time.Duration) (*Client, *Fleet) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Strategy: StrategyConfig{Kind: StrategyHedge, HedgeQuantile: quantile},
		Seed:     1,
		Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
	})
	call := 0
	fl.Client.Latency = func(u *Upstream) time.Duration {
		if call < len(seq) {
			call++
			return seq[call-1]
		}
		return 4 * time.Millisecond
	}
	fl.Add(ProtoDoH, "fe0", recursor, frontendAddr(0))
	fl.Add(ProtoDoH, "fe1", recursor, frontendAddr(1))
	return fl.Client, fl
}

// TestHedgeFiresAboveQuantile pins the hedge trigger: with warm
// quantile windows, a primary exchange landing in its own tail fires a
// same-protocol duplicate, and the faster understudy wins.
func TestHedgeFiresAboveQuantile(t *testing.T) {
	// 20 warm draws at 4ms fill both members' quantile windows (ring
	// minimum is quantileMinSamples per member), then one 30ms tail draw
	// for the primary and a 4ms draw for the understudy.
	seq := make([]time.Duration, 20)
	for i := range seq {
		seq[i] = 4 * time.Millisecond
	}
	seq = append(seq, 30*time.Millisecond, 4*time.Millisecond)
	client, fl := hedgeFleet(t, 0.9, seq)
	for i := 0; i < 20; i++ {
		if _, err := client.Query(fmt.Sprintf("warm%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := fl.StrategyStats(); st.Hedges != 0 {
		t.Fatalf("hedges fired during the uniform warmup: %d", st.Hedges)
	}
	if _, err := client.Query("tail.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	st := fl.StrategyStats()
	if st.Hedges != 1 {
		t.Fatalf("hedges=%d after a tail exchange, want 1", st.Hedges)
	}
	// Understudy completes at threshold(4ms)+4ms = 8ms, beating the
	// primary's 30ms: the slow primary is cancelled in flight.
	if st.LosersCancelled != 1 || st.Wasted != 1 {
		t.Errorf("cancelled=%d wasted=%d, want 1/1", st.LosersCancelled, st.Wasted)
	}
	if st.Exchanges != 21 || st.Attempts != 22 {
		t.Errorf("exchanges=%d attempts=%d, want 21/22", st.Exchanges, st.Attempts)
	}
}

// TestHedgeIgnoresReconnectSetupCost pins the trigger's unit: the hedge
// compares the attempt's RTT against the RTT-quantile threshold, so a
// reconnect exchange — nominal RTT plus TCP+TLS setup round-trips after
// a dropped DoT connection — must not fire a hedge.
func TestHedgeIgnoresReconnectSetupCost(t *testing.T) {
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Strategy: StrategyConfig{Kind: StrategyHedge, HedgeQuantile: 0.9},
		Seed:     1,
		Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
		Latency:  func(*Upstream) time.Duration { return 4 * time.Millisecond },
	})
	fl.Add(ProtoDoT, "fe0", recursor, frontendAddr(0))
	fl.Add(ProtoDoT, "fe1", recursor, frontendAddr(1))
	client := fl.Client

	// Warm both members' quantile windows past the sample floor.
	for i := 0; i < 20; i++ {
		if _, err := client.Query(fmt.Sprintf("warm%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	// Drop both persistent connections: the next exchange redials and
	// pays Cost = 3×RTT while its RTT stays nominal.
	client.dropDoT(frontendAddr(0))
	client.dropDoT(frontendAddr(1))
	if _, err := client.Query("reconnect.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if st := fl.StrategyStats(); st.Hedges != 0 {
		t.Errorf("hedges=%d after a reconnect with nominal RTT, want 0 (setup cost is not tail latency)", st.Hedges)
	}
}

// TestHedgeColdQuantileStaysSerial pins the guard: until a member has
// quantileMinSamples RTT samples, no threshold exists and hedging
// behaves serially even for slow exchanges.
func TestHedgeColdQuantileStaysSerial(t *testing.T) {
	seq := []time.Duration{40 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	client, fl := hedgeFleet(t, 0.9, seq)
	for i := 0; i < 3; i++ {
		if _, err := client.Query(fmt.Sprintf("cold%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := fl.StrategyStats(); st.Hedges != 0 || st.Attempts != 3 {
		t.Errorf("hedges=%d attempts=%d on a cold quantile window, want 0/3", st.Hedges, st.Attempts)
	}
}

// TestHedgePairEdges pins where a hedge may and may not take its
// understudy. Each leg warms every member's quantile window at 4ms over
// round-robin, so the next exchange's primary is fe0, then gives fe0 a
// 30ms tail RTT.
func TestHedgePairEdges(t *testing.T) {
	warmed := func(t *testing.T, primary *stubRecursor, protos ...Protocol) *Fleet {
		t.Helper()
		net, clock := testNet()
		tail := new(bool)
		fl := NewFleet(net, clock, FleetConfig{
			Balance:  BalanceRoundRobin,
			Strategy: StrategyConfig{Kind: StrategyHedge, HedgeQuantile: 0.9},
			Seed:     1,
			Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
			Latency: func(u *Upstream) time.Duration {
				if *tail && u.Addr == frontendAddr(0) {
					return 30 * time.Millisecond
				}
				return 4 * time.Millisecond
			},
		})
		fl.Add(protos[0], "fe0", primary, frontendAddr(0))
		for i := 1; i < len(protos); i++ {
			fl.Add(protos[i], fmt.Sprintf("fe%d", i), &stubRecursor{ttl: 300}, frontendAddr(i))
		}
		for i := 0; i < quantileMinSamples*len(protos); i++ {
			if _, err := fl.Client.Query(fmt.Sprintf("warm%d.test", i), dnswire.TypeHTTPS, false); err != nil {
				t.Fatal(err)
			}
		}
		if st := fl.StrategyStats(); st.Hedges != 0 {
			t.Fatalf("hedges fired during the uniform warmup: %d", st.Hedges)
		}
		*tail = true
		return fl
	}
	t.Run("servfail-with-dark-understudy-falls-through", func(t *testing.T) {
		// The tail primary SERVFAILs and its same-protocol understudy is
		// dark: the hedge fired, lost both legs, and the third candidate
		// answers serially.
		primary := &stubRecursor{ttl: 300}
		fl := warmed(t, primary, ProtoDoH, ProtoDoH, ProtoDoH)
		primary.servfail = true
		fl.Net.SetAddrDown(frontendAddr(1).Addr(), true)
		base, served := fl.StrategyStats(), fl.Frontends[2].Stats().Served
		resp, err := fl.Client.Query("tail-fail.test", dnswire.TypeHTTPS, false)
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeNoError {
			t.Errorf("rcode = %v, want the third candidate's NOERROR", resp.RCode)
		}
		st := fl.StrategyStats()
		if hedges, attempts := st.Hedges-base.Hedges, st.Attempts-base.Attempts; hedges != 1 || attempts != 3 {
			t.Errorf("hedges=%d attempts=%d, want 1/3", hedges, attempts)
		}
		if got := fl.Frontends[2].Stats().Served - served; got != 1 {
			t.Errorf("third candidate served %d, want 1", got)
		}
	})
	t.Run("never-crosses-protocols", func(t *testing.T) {
		// The only other member speaks DoT: a hedge armed by a DoH
		// threshold has no understudy, so the exchange stays serial.
		fl := warmed(t, &stubRecursor{ttl: 300}, ProtoDoH, ProtoDoT)
		base, served := fl.StrategyStats(), fl.Frontends[1].Stats().Served
		if _, err := fl.Client.Query("tail.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
		st := fl.StrategyStats()
		if hedges, attempts := st.Hedges-base.Hedges, st.Attempts-base.Attempts; hedges != 0 || attempts != 1 {
			t.Errorf("hedges=%d attempts=%d, want 0/1", hedges, attempts)
		}
		if got := fl.Frontends[1].Stats().Served - served; got != 0 {
			t.Errorf("DoT member served %d, want 0 (no cross-protocol duplicate)", got)
		}
	})
}

// TestRTTQuantile pins the pool's quantile estimator: no estimate below
// the sample floor, exact order statistics above it.
func TestRTTQuantile(t *testing.T) {
	net, clock := testNet()
	_ = net
	pool := NewPool(clock, BalanceRoundRobin, 1)
	u := pool.Add("fe0", frontendAddr(0), ProtoDoH)
	if _, ok := pool.RTTQuantile(u, 0.9); ok {
		t.Error("quantile reported with zero samples")
	}
	for i := 1; i <= 10; i++ {
		pool.ObserveRTT(u, time.Duration(i)*time.Millisecond)
	}
	if d, ok := pool.RTTQuantile(u, 0.0); !ok || d != time.Millisecond {
		t.Errorf("p0 = %v/%v, want 1ms", d, ok)
	}
	if d, ok := pool.RTTQuantile(u, 1.0); !ok || d != 10*time.Millisecond {
		t.Errorf("p100 = %v/%v, want 10ms", d, ok)
	}
	if d, ok := pool.RTTQuantile(u, 0.5); !ok || d != 5*time.Millisecond {
		t.Errorf("p50 = %v/%v, want 5ms (index 4 of 10 ascending)", d, ok)
	}
}

// TestParseStrategyKinds round-trips the strategy names.
func TestParseStrategyKinds(t *testing.T) {
	for _, k := range []StrategyKind{StrategySerial, StrategyRace, StrategyHedge} {
		got, err := ParseStrategy(k.String())
		if err != nil || got != k {
			t.Errorf("ParseStrategy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseStrategy("p2"); err == nil {
		t.Error("balance name accepted as a resolution strategy")
	}
}

// TestUnknownStrategyKindDialsNothing pins that a Kind ParseStrategy would
// reject runs no strategy at all, rather than one StrategyStats misnames.
func TestUnknownStrategyKindDialsNothing(t *testing.T) {
	client, _, _, _, _ := newTestFleet(t, 2, BalanceRoundRobin)
	client.Strategy = StrategyConfig{Kind: StrategyHedge + 1}
	if m, err := client.Query("unknown.test", dnswire.TypeHTTPS, false); err == nil {
		t.Fatalf("exchange under an unknown strategy answered: %v", m)
	}
	if st := client.StrategyStats(); st.Strategy != "strategy(3)" || st.Attempts != 0 {
		t.Errorf("stats = %q with %d attempts, want strategy(3) with none", st.Strategy, st.Attempts)
	}
}
