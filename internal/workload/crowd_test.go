package workload

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// crowdRecursor is the upstream behind the test fleets: it answers
// HTTPS queries with a fixed-TTL record, counts how many queries make
// it past the fleet cache, and can be flapped dead mid-scenario.
type crowdRecursor struct {
	ttl     uint32
	queries int
	fail    bool
}

func (s *crowdRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	s.queries++
	if s.fail {
		return nil
	}
	resp := q.Reply()
	resp.RecursionAvailable = true
	resp.Answer = append(resp.Answer, dnswire.RR{
		Name: q.Question[0].Name, Type: dnswire.TypeHTTPS,
		Class: dnswire.ClassINET, TTL: s.ttl,
		Data: &dnswire.SVCBData{Priority: 1, Target: "."},
	})
	return resp
}

// newCrowdFleet stands up n DoH frontends over one recursor on a fresh
// virtual network — the exported-API equivalent of the transport
// package's internal test fleet.
func newCrowdFleet(t *testing.T, n int, cache transport.CacheConfig, cooldown time.Duration) (*transport.Fleet, *crowdRecursor, *simnet.Network, *simnet.Clock) {
	t.Helper()
	clock := simnet.NewClock(time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.New(clock)
	rec := &crowdRecursor{ttl: 30}
	fl := transport.NewFleet(net, clock, transport.FleetConfig{
		Seed:            1,
		Cache:           cache,
		FailureCooldown: cooldown,
	})
	for i := 0; i < n; i++ {
		ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}), 443)
		fl.Add(transport.ProtoDoH, fmt.Sprintf("fe%d", i), rec, ap)
	}
	return fl, rec, net, clock
}

// TestCrowdAtCacheEntryTTLExpiry lands a thundering herd exactly when
// the fleet-cache entry it hammers expires: the herd must be absorbed by
// exactly one upstream refetch, never amplified into per-client
// recursor traffic.
func TestCrowdAtCacheEntryTTLExpiry(t *testing.T) {
	fl, rec, _, clock := newCrowdFleet(t, 1,
		transport.CacheConfig{Shards: 4, ShardCapacity: 64}, 0)

	// Warm the entry at t0: it expires exactly 30 s (the recursor TTL)
	// later.
	warmed := clock.Now()
	if _, err := fl.Client.Query("crowd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if rec.queries != 1 {
		t.Fatalf("warm query: recursor saw %d, want 1", rec.queries)
	}

	// The herd: 3 000 clients asking for the one name from the expiry on,
	// for a span shorter than the refetched entry's TTL.
	clock.Set(warmed.Add(30 * time.Second))
	eng, err := New(Config{
		Clients: 3_000, Model: ModelOpen, Seed: 7,
		Domains: []string{"crowd.test"}, Duration: 10 * time.Second,
	}, clock, fl.Client)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Errors != 0 {
		t.Fatalf("%d errors during the crowd", sum.Errors)
	}
	// The warm query was the client's first exchange.
	exchanges := sum.Queries - sum.StubHits
	if got := fl.Client.StrategyStats().Exchanges - 1; exchanges != got {
		t.Fatalf("engine sent %d fleet exchanges, client counted %d", exchanges, got)
	}
	if exchanges < 1_000 {
		t.Fatalf("only %d fleet exchanges — the crowd never reached the fleet", exchanges)
	}
	// One warm fetch plus exactly one refetch at the expiry boundary:
	// the cache, not the recursor, absorbs the herd.
	if rec.queries != 2 {
		t.Fatalf("recursor saw %d queries, want 2 (warm + one expiry refetch) — the herd leaked upstream", rec.queries)
	}
}

// TestCrowdDuringRecursorFlap drives a crowd into a fleet whose
// recursor has just died, past the entry's TTL: RFC 8767 serve-stale
// must carry the load with zero client-visible errors, and the client
// must count the stale answers it was served.
func TestCrowdDuringRecursorFlap(t *testing.T) {
	fl, rec, _, clock := newCrowdFleet(t, 1,
		transport.CacheConfig{Shards: 4, ShardCapacity: 64, StaleWindow: time.Hour},
		5*time.Minute)

	warmed := clock.Now()
	if _, err := fl.Client.Query("crowd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	rec.fail = true // the recursor flaps before the entry's 30 s TTL runs out

	// The crowd arrives 2 s past the entry's expiry.
	clock.Set(warmed.Add(32 * time.Second))
	eng, err := New(Config{
		Clients: 2_000, Model: ModelOpen, Seed: 7,
		Domains: []string{"crowd.test"}, Duration: 5 * time.Second,
	}, clock, fl.Client)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Errors != 0 {
		t.Fatalf("%d errors — serve-stale should have absorbed the flap", sum.Errors)
	}
	if fl.Client.StaleAnswers() == 0 {
		t.Fatal("no stale answers served during a crowd past TTL expiry with the recursor down")
	}
	stats := fl.Frontends[0].Stats()
	if stats.StaleServed == 0 || stats.UpstreamFailures == 0 {
		t.Fatalf("frontend stats missed the flap: %+v", stats)
	}
}

// TestCrowdFailoverPastDeadFrontends floods a pool whose capacity has
// collapsed — two of three frontends unreachable — with a crowd larger
// than the survivor would see in steady state: failover must route
// every query to the healthy member with zero errors.
func TestCrowdFailoverPastDeadFrontends(t *testing.T) {
	fl, rec, net, clock := newCrowdFleet(t, 3,
		transport.CacheConfig{Shards: 4, ShardCapacity: 256}, 0)
	rec.ttl = 300

	// Kill frontends 1 and 2 before any traffic flows.
	for i := 1; i <= 2; i++ {
		net.SetAddrDown(fl.Addrs[i].Addr(), true)
	}

	// 20 000 clients over 5 s: some 7 900 queries, spread over 50 names.
	eng, err := New(Config{
		Clients: 20_000, Model: ModelOpen, Seed: 7,
		Domains: testDomains(50), Duration: 5 * time.Second,
	}, clock, fl.Client)
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Errors != 0 {
		t.Fatalf("%d errors — failover should have reached the healthy frontend every time", sum.Errors)
	}
	ss := fl.Client.StrategyStats()
	if exchanges := sum.Queries - sum.StubHits; exchanges == 0 || exchanges != ss.Exchanges {
		t.Fatalf("engine sent %d fleet exchanges, client counted %d", exchanges, ss.Exchanges)
	}
	if fl.Frontends[0].Stats().Served == 0 {
		t.Fatal("healthy frontend served nothing")
	}
	if dead1, dead2 := fl.Frontends[1].Stats(), fl.Frontends[2].Stats(); dead1.Served != 0 || dead2.Served != 0 {
		t.Fatalf("dead frontends served traffic: %+v / %+v", dead1, dead2)
	}
	// The client must have benched the dead members: attempts above
	// exchanges early on, then the healthy member pinned.
	if ss.Attempts <= ss.Exchanges {
		t.Fatalf("no extra attempts recorded (%d attempts / %d exchanges) — failover never exercised",
			ss.Attempts, ss.Exchanges)
	}
}
