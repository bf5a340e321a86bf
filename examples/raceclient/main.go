// Raceclient: drive the transport client's resolution strategies — the
// happy-eyeballs shape real encrypted-DNS clients (Firefox, Chrome,
// dnscrypt-proxy) actually use — against a mixed DoH/DoT/DoQ fleet:
//
//  1. protocol racing: the pool's top candidate gets a stagger head
//     start; when its answer misses the deadline, the next candidate on
//     a *different* protocol launches, and the earlier virtual
//     completion wins. The winner-protocol distribution shows which
//     envelopes actually answer, and the wasted-query counter prices
//     the duplicate upstream load the race pays for its latency win;
//  2. failover under fire: with every DoH frontend dark, races ride the
//     DoT/DoQ survivors without a single lost exchange;
//  3. hedged queries: the strategy is a StrategyConfig field on the
//     Client, so the same fleet switches to hedging mid-run — a
//     per-upstream latency-quantile timer that fires a same-protocol
//     duplicate when the primary lands in its own tail;
//  4. traced exchanges: an obs.Tracer on the client records every hedge
//     as a span tree — the receive, the primary dial, the understudy
//     launching at the hedge timer's virtual offset, and the commit —
//     and the slowest trees are printed.
//
// Everything runs on the virtual clock: racing is simulated by
// comparing completion times, so the whole demo is deterministic for a
// seed.
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	camp, err := core.NewCampaign(core.CampaignConfig{
		Size: 3000, Seed: 1,
		DoHFrontends:      6,
		TransportMix:      transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		RaceStagger:       5 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	world, fleet := camp.World, camp.Fleet
	client := fleet.Client
	day := time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)
	world.Clock.Set(day)
	list := world.Tranco.ListFor(day)

	fmt.Printf("fleet mix %s, strategy %s, stagger %v:\n",
		camp.Cfg.TransportMix, client.Strategy.Kind, camp.Cfg.RaceStagger)
	for i, st := range fleet.Stats() {
		fmt.Printf("  %-18s %s at %v\n", st.Name, st.Proto, fleet.Addrs[i])
	}

	// 1. Race over the mix: frontends whose synthetic RTT beats the
	// stagger win unopposed; slower primaries get raced by the next
	// candidate on another protocol.
	for _, name := range list[:400] {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			panic(err)
		}
	}
	printStrategy(fleet, "after 400 raced HTTPS queries")
	fmt.Println("\npool RTTs (the race's form book):")
	for _, st := range fleet.Pool.Stats() {
		fmt.Printf("  %-18s %s rtt=%v\n", st.Name, st.Proto, st.RTT.Round(time.Microsecond))
	}

	// 2. Kill every DoH frontend: cross-protocol racing turns the
	// outage into failover without a single lost exchange.
	killed := 0
	for _, st := range fleet.Pool.Stats() {
		if st.Proto == transport.ProtoDoH {
			world.Net.SetAddrDown(st.Addr.Addr(), true)
			killed++
		}
	}
	fmt.Printf("\n%d DoH frontends marked unreachable; racing on:\n", killed)
	lost := 0
	for _, name := range list[400:800] {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			lost++
		}
	}
	fmt.Printf("  400 more queries, %d lost\n", lost)
	printStrategy(fleet, "cumulative")

	// 3. The strategy is plain config on a live client: switch the same
	// fleet to hedged queries under a tail-latency model — every 9th
	// exchange is an outlier, so the p80-armed hedge timer fires on the
	// tail and only the tail.
	for _, st := range fleet.Pool.Stats() {
		world.Net.SetAddrDown(st.Addr.Addr(), false)
	}
	client.Strategy = transport.StrategyConfig{Kind: transport.StrategyHedge, HedgeQuantile: 0.8}
	calls := 0
	client.Latency = func(u *transport.Upstream) time.Duration {
		calls++
		if calls%9 == 0 {
			return 30 * time.Millisecond // the tail the hedge cuts off
		}
		return 4 * time.Millisecond
	}
	// 4. Trace the hedged phase: SampleEvery 1 records every exchange;
	// hedge understudies appear as dial spans launched at the timer's
	// virtual offset, so the span tree shows the tail being cut off.
	client.Tracer = obs.NewTracer(world.Clock, obs.TraceConfig{SampleEvery: 1})
	hedgeBase := fleet.StrategyStats()
	for _, name := range list[800:1200] {
		if _, err := client.Query(name, dnswire.TypeHTTPS, true); err != nil {
			panic(err)
		}
	}
	st := fleet.StrategyStats()
	fmt.Printf("\nswitched to %s (quantile 0.8) with a 1-in-9 tail-latency model:\n", st.Strategy)
	fmt.Printf("  400 queries: %d hedges fired, %d losers cancelled, %d wasted upstream queries\n",
		st.Hedges-hedgeBase.Hedges, st.LosersCancelled-hedgeBase.LosersCancelled,
		st.Wasted-hedgeBase.Wasted)

	fmt.Printf("\nslowest traced exchanges (of %d sampled):\n", client.Tracer.Len())
	for _, tr := range client.Tracer.Slowest(3) {
		fmt.Print(tr.Tree())
	}
}

// printStrategy reports the fleet's strategy telemetry.
func printStrategy(fleet *transport.Fleet, label string) {
	st := fleet.StrategyStats()
	fmt.Printf("\nstrategy %s (%s):\n", st.Strategy, label)
	fmt.Printf("  %d exchanges, %d attempts: %d races, %d losers cancelled, %d wasted\n",
		st.Exchanges, st.Attempts, st.Races, st.LosersCancelled, st.Wasted)
	fmt.Print("  winner protocols:")
	for _, p := range []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT, transport.ProtoDoQ} {
		if n, ok := st.WinsByProto[p]; ok {
			fmt.Printf("  %s=%d", p, n)
		}
	}
	fmt.Println()
}
