package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// latencyTable pins a fixed virtual RTT per frontend index, keyed by
// address — the deterministic knob every racing boundary test turns.
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
func raceFleet(t *testing.T, lat map[int]time.Duration, protos ...Protocol) (*Client, *Fleet, *stubRecursor) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance:  BalanceRoundRobin,
		Strategy: StrategyConfig{Kind: StrategyRace},
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
	t.Run("at-edge-no-race", func(t *testing.T) {
		client, fl, _ := raceFleet(t,
			map[int]time.Duration{0: raceStagger, 1: time.Millisecond},
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
		client, fl, _ := raceFleet(t,
			map[int]time.Duration{0: raceStagger + time.Nanosecond, 1: time.Millisecond},
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
		client, fl, _ := raceFleet(t,
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
	client, fl, _ := raceFleet(t,
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
		client, fl, _ := raceFleet(t, nil,
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
			Strategy: StrategyConfig{Kind: StrategyRace},
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
			Strategy: StrategyConfig{Kind: StrategyRace},
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
		Strategy: StrategyConfig{Kind: StrategyRace},
		Seed:     1,
		Cache:    CacheConfig{Shards: 4, ShardCapacity: 64},
		Latency:  latencyTable(nil, 10*time.Millisecond),
	})
	fl.Add(ProtoDoH, "fe0", recursor, frontendAddr(0))
	fl.Add(ProtoDoH, "fe1", recursor, frontendAddr(1))
	fl.Add(ProtoDoT, "fe2", recursor, frontendAddr(2))
	client := fl.Client

	// Every primary misses the 5ms stagger, so every exchange races.
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
	// Every member answers past the 5ms stagger, so the survivors race.
	slow := map[int]time.Duration{0: 10 * time.Millisecond, 1: 10 * time.Millisecond, 2: 10 * time.Millisecond, 3: 10 * time.Millisecond}
	client, fl, _ := raceFleet(t, slow, Mix{DoH: 2, DoT: 1, DoQ: 1}.Assign(4)...)
	for i, fe := range fl.Frontends {
		if fe.Proto == ProtoDoH {
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
	client, fl, _ := raceFleet(t,
		map[int]time.Duration{0: 20 * time.Millisecond}, ProtoDoH)
	if _, err := client.Query("solo.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if st := fl.StrategyStats(); st.Races != 0 || st.Attempts != 1 {
		t.Errorf("races=%d attempts=%d for a one-member pool, want 0/1", st.Races, st.Attempts)
	}
}

// TestParseStrategyKinds round-trips the strategy names.
func TestParseStrategyKinds(t *testing.T) {
	for _, k := range []StrategyKind{StrategySerial, StrategyRace} {
		got, err := ParseStrategy(k.String())
		if err != nil || got != k {
			t.Errorf("ParseStrategy(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"p2", "hedge"} {
		_, err := ParseStrategy(name)
		if err == nil || !strings.Contains(err.Error(), "want serial or race") {
			t.Errorf("ParseStrategy(%q) error = %v, want one listing serial and race", name, err)
		}
	}
}

// TestUnknownStrategyKindDialsNothing pins that a Kind ParseStrategy would
// reject runs no strategy at all, rather than one StrategyStats misnames.
func TestUnknownStrategyKindDialsNothing(t *testing.T) {
	client, _, _, _, _ := newTestFleet(t, 2, BalanceRoundRobin)
	client.Strategy = StrategyConfig{Kind: StrategyRace + 1}
	if m, err := client.Query("unknown.test", dnswire.TypeHTTPS, false); err == nil {
		t.Fatalf("exchange under an unknown strategy answered: %v", m)
	}
	if st := client.StrategyStats(); st.Strategy != "strategy(2)" || st.Attempts != 0 {
		t.Errorf("stats = %q with %d attempts, want strategy(2) with none", st.Strategy, st.Attempts)
	}
}
