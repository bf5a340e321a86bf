package transport

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// stubRecursor answers HTTPS/A queries for any name with fixed records,
// counting how many queries reach it — a stand-in for a recursive
// resolver that lets the tests observe cache offload. The failure knobs
// model a dead recursor (fail: nil responses, the hard failure simnet
// reports for unreachable fleets) and a struggling one (servfail); the
// negative knobs switch it to RFC 2308 NXDOMAIN answers carrying an SOA.
type stubRecursor struct {
	ttl     uint32
	mu      sync.Mutex // guards queries: concurrent streams share one stub
	queries int

	fail     bool // return nil: hard upstream failure
	servfail bool // answer SERVFAIL over a healthy transport

	negative   bool   // answer NXDOMAIN with an SOA authority record
	soaTTL     uint32 // SOA record TTL
	soaMinimum uint32 // SOA minimum field (RFC 2308 negative TTL input)
}

func (s *stubRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
	if s.fail {
		return nil
	}
	resp := q.Reply()
	resp.RecursionAvailable = true
	if s.servfail {
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	if s.negative {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name: "test.", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: s.soaTTL,
			Data: &dnswire.SOAData{MName: "ns1.test.", RName: "hostmaster.test.",
				Serial: 1, Minimum: s.soaMinimum},
		})
		return resp
	}
	switch question.Type {
	case dnswire.TypeHTTPS:
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: s.ttl,
			Data: &dnswire.SVCBData{Priority: 1, Target: "."},
		})
	case dnswire.TypeA:
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: s.ttl,
			Data: &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")},
		})
	}
	return resp
}

func testNet() (*simnet.Network, *simnet.Clock) {
	clock := simnet.NewClock(time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
	return simnet.New(clock), clock
}

func frontendAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}), 443)
}

// newTestFleet registers n frontends of the given protocols over one stub
// recursor with a shared cache and returns a client over the pool.
// protos cycles when shorter than n (nil means all-DoH).
func newTestFleet(t *testing.T, n int, balance Balance, protos ...Protocol) (*Client, *Fleet, *stubRecursor, *simnet.Network, *simnet.Clock) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance: balance, Seed: 1,
		Cache: CacheConfig{Shards: 4, ShardCapacity: 64},
	})
	if len(protos) == 0 {
		protos = []Protocol{ProtoDoH}
	}
	for i := 0; i < n; i++ {
		p := protos[i%len(protos)]
		fl.Add(p, fmt.Sprintf("fe%d", i), recursor, frontendAddr(i))
	}
	return fl.Client, fl, recursor, net, clock
}

func TestServerCacheHitAndVirtualClockExpiry(t *testing.T) {
	client, fl, recursor, _, clock := newTestFleet(t, 1, BalanceRoundRobin)

	if _, err := client.Query("cached.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 1 {
		t.Fatalf("first query: recursor saw %d queries, want 1", recursor.queries)
	}
	// Second query inside the TTL window: served from cache, recursor idle.
	resp, err := client.Query("cached.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 1 {
		t.Errorf("cached query leaked to recursor (%d queries)", recursor.queries)
	}
	if fl.Frontends[0].Stats().CacheHits != 1 {
		t.Errorf("frontend counted %d cache hits, want 1", fl.Frontends[0].Stats().CacheHits)
	}
	if resp.Answer[0].TTL != 300 {
		t.Errorf("TTL aged with no elapsed time: %d", resp.Answer[0].TTL)
	}

	// Let 100 virtual seconds pass: still cached, TTL aged.
	clock.Advance(100 * time.Second)
	resp, err = client.Query("cached.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 1 {
		t.Errorf("aged-but-live entry leaked to recursor")
	}
	if resp.Answer[0].TTL != 200 {
		t.Errorf("aged TTL = %d, want 200", resp.Answer[0].TTL)
	}

	// Cross the expiry boundary: the recursor must be consulted again.
	clock.Advance(201 * time.Second)
	if _, err := client.Query("cached.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 2 {
		t.Errorf("expired entry not refreshed: recursor saw %d queries, want 2", recursor.queries)
	}
}

func TestCacheKeyIncludesTypeAndDOBit(t *testing.T) {
	client, _, recursor, _, _ := newTestFleet(t, 1, BalanceRoundRobin)
	if _, err := client.Query("multi.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("multi.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("multi.test", dnswire.TypeHTTPS, true); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 3 {
		t.Errorf("distinct (type, DO) lookups shared a cache slot: %d recursor queries, want 3", recursor.queries)
	}
}

func TestCacheLRUEvictionPerShard(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 1, ShardCapacity: 4}) // single shard, capacity 4
	mk := func(name string) *dnswire.Message {
		q := dnswire.NewQuery(1, name, dnswire.TypeA, false)
		resp := q.Reply()
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.7")},
		})
		return resp
	}
	key := func(i int) Key {
		return cacheKey(dnswire.NewQuery(0, fmt.Sprintf("n%d.test.", i), dnswire.TypeA, false))
	}
	for i := 0; i < 4; i++ {
		cache.Put(key(i), mk(fmt.Sprintf("n%d.test.", i)))
	}
	// Touch n0 so n1 becomes least recently used, then overflow.
	if cache.Probe(key(0), 0, nil).State != StateFresh {
		t.Fatal("warm entry missing")
	}
	cache.Put(key(4), mk("n4.test."))
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries, want capacity 4", cache.Len())
	}
	if cache.Probe(key(1), 0, nil).State != StateMiss {
		t.Error("LRU victim n1 still cached")
	}
	if cache.Probe(key(0), 0, nil).State != StateFresh {
		t.Error("recently-used n0 evicted")
	}
	stats := cache.Stats()
	if stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", stats.Evictions)
	}
}

func TestCacheShardingSpreadsKeys(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 8, ShardCapacity: 16})
	touched := 0
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		key := Key{Name: fmt.Sprintf("name%d.test.", i), Type: dnswire.TypeHTTPS, DO: true}
		for si, s := range cache.shards {
			if s == cache.shardFor(key) {
				counts[si]++
			}
		}
	}
	for si, n := range counts {
		if n > 0 {
			touched++
		}
		if n > 80 {
			t.Errorf("shard %d absorbed %d/200 keys — fnv spread broken", si, n)
		}
	}
	if touched < 6 {
		t.Errorf("only %d/8 shards used", touched)
	}
}

func TestRoundRobinCyclesFrontends(t *testing.T) {
	client, fl, _, _, _ := newTestFleet(t, 3, BalanceRoundRobin)
	// Distinct names so the shared cache doesn't absorb the later queries.
	for i := 0; i < 6; i++ {
		if _, err := client.Query(fmt.Sprintf("rr%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, fe := range fl.Frontends {
		if st := fe.Stats(); st.Served != 2 {
			t.Errorf("frontend %s served %d, want 2", st.Name, st.Served)
		}
	}
}

func TestP2FavoursLowerRTT(t *testing.T) {
	_, clock := testNet()
	pool := newPool(clock, BalanceP2, 7)
	fast := pool.Add("fast", frontendAddr(0), ProtoDoH)
	for i := 1; i < 4; i++ {
		slow := pool.Add(fmt.Sprintf("slow%d", i), frontendAddr(i), ProtoDoH)
		pool.ObserveRTT(slow, 50*time.Millisecond)
	}
	pool.ObserveRTT(fast, time.Millisecond)
	wins := 0
	const draws = 400
	for i := 0; i < draws; i++ {
		if pool.Candidates(nil, ProtoAny)[0] == fast {
			wins++
		}
	}
	// With 4 members, the fast one is in the sampled pair with
	// probability 1/2 and wins every pair it appears in.
	if wins < draws/3 || wins > 2*draws/3 {
		t.Errorf("P2 picked the fast member %d/%d times, want ≈%d", wins, draws, draws/2)
	}
}

func TestFailoverOnSimnetFailureInjection(t *testing.T) {
	client, fl, _, net, _ := newTestFleet(t, 3, BalanceRoundRobin)

	// Take frontend 0 down at the address level and frontend 1 at the
	// port level; every query must fail over to frontend 2.
	net.SetAddrDown(frontendAddr(0).Addr(), true)
	net.SetPortDown(frontendAddr(1), true)
	for i := 0; i < 3; i++ {
		if _, err := client.Query(fmt.Sprintf("fo%d.test", i), dnswire.TypeHTTPS, false); err != nil {
			t.Fatalf("query %d failed despite a healthy frontend: %v", i, err)
		}
	}
	if got := fl.Frontends[2].Stats().Served; got != 3 {
		t.Errorf("surviving frontend served %d, want 3", got)
	}
	var downs int
	for _, s := range client.Pool.Stats() {
		if s.Down {
			downs++
		}
	}
	if downs != 2 {
		t.Errorf("%d members benched, want 2", downs)
	}

	// All down: queries error with ErrNoUpstreams context.
	net.SetAddrDown(frontendAddr(2).Addr(), true)
	if _, err := client.Query("dark.test", dnswire.TypeHTTPS, false); err == nil {
		t.Error("query succeeded with the whole fleet down")
	}

	// Recovery: bring frontend 2 back; benched members retry after their
	// cooldown, but the healthy one is preferred immediately.
	net.SetAddrDown(frontendAddr(2).Addr(), false)
	if _, err := client.Query("back.test", dnswire.TypeHTTPS, false); err != nil {
		t.Errorf("query failed after recovery: %v", err)
	}
}

func TestBenchedUpstreamRecoversAfterCooldown(t *testing.T) {
	client, fl, _, net, clock := newTestFleet(t, 2, BalanceRoundRobin)
	net.SetAddrDown(frontendAddr(0).Addr(), true)
	if _, err := client.Query("a.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	net.SetAddrDown(frontendAddr(0).Addr(), false)

	// Still benched: traffic keeps landing on frontend 1.
	for i := 0; i < 4; i++ {
		if _, err := client.Query(fmt.Sprintf("b%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	if fl.Frontends[0].Stats().Served != 0 {
		t.Errorf("benched frontend served %d queries during cooldown", fl.Frontends[0].Stats().Served)
	}
	// After the cooldown elapses on the virtual clock it rejoins.
	clock.Advance(DefaultCooldown + time.Second)
	for i := 0; i < 4; i++ {
		if _, err := client.Query(fmt.Sprintf("c%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	if fl.Frontends[0].Stats().Served == 0 {
		t.Error("recovered frontend received no traffic after cooldown")
	}
}

// TestFleetSharedCacheAcrossFrontends is the anycast-pod property: a hit
// on any frontend warms every sibling — including siblings speaking a
// different protocol (the cache is keyed below the envelope).
func TestFleetSharedCacheAcrossFrontends(t *testing.T) {
	client, fl, recursor, _, _ := newTestFleet(t, 3, BalanceRoundRobin,
		ProtoDoH, ProtoDoT, ProtoDoQ)
	for i := 0; i < 3; i++ {
		if _, err := client.Query("shared.test", dnswire.TypeHTTPS, true); err != nil {
			t.Fatal(err)
		}
	}
	if recursor.queries != 1 {
		t.Errorf("shared cache leaked %d queries to the recursor, want 1", recursor.queries)
	}
	totalHits := fl.TotalStats().CacheHits
	if totalHits != 2 {
		t.Errorf("fleet counted %d cache hits, want 2", totalHits)
	}
}

// servFailRecursor answers every query with SERVFAIL, modelling a
// recursor whose validation or upstreams are broken.
type servFailRecursor struct{}

func (servFailRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.RCode = dnswire.RCodeServFail
	return resp
}

// TestSERVFAILFailsOverToNextUpstream is the paper's Google→Cloudflare
// fallback inside the pool: a SERVFAIL from one member's recursor must
// not end the exchange (nor bench the member — its transport is fine)
// while a sibling can answer. Run per protocol: every envelope must carry
// the SERVFAIL without converting it into a transport failure.
func TestSERVFAILFailsOverToNextUpstream(t *testing.T) {
	for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		t.Run(proto.String(), func(t *testing.T) {
			net, clock := testNet()
			fl := NewFleet(net, clock, FleetConfig{Balance: BalanceRoundRobin, Seed: 1})
			fl.Add(proto, "broken", servFailRecursor{}, frontendAddr(0))
			fl.Add(proto, "good", &stubRecursor{ttl: 300}, frontendAddr(1))
			client := fl.Client

			// Round-robin alternates who is tried first; both orders must
			// land on the good recursor's answer.
			for i := 0; i < 4; i++ {
				resp, err := client.Query(fmt.Sprintf("sf%d.test", i), dnswire.TypeHTTPS, false)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
					t.Fatalf("query %d: rcode=%v answers=%d", i, resp.RCode, len(resp.Answer))
				}
			}
			for _, st := range fl.Pool.Stats() {
				if st.Down || st.Failures != 0 {
					t.Errorf("%s benched for SERVFAIL (down=%v failures=%d) — transport was healthy",
						st.Name, st.Down, st.Failures)
				}
			}

			// With every member SERVFAILing, the answer is SERVFAIL, not an
			// error.
			net.UnregisterService(frontendAddr(1))
			fl2 := NewFleet(net, clock, FleetConfig{Balance: BalanceRoundRobin, Seed: 1})
			fl2.Add(proto, "broken", servFailRecursor{}, frontendAddr(2))
			resp, err := fl2.Client.Query("allbroken.test", dnswire.TypeHTTPS, false)
			if err != nil {
				t.Fatal(err)
			}
			if resp.RCode != dnswire.RCodeServFail {
				t.Errorf("unanimous SERVFAIL not surfaced: %v", resp.RCode)
			}
		})
	}
}

// newStaleFleet builds a single-frontend fleet with a lifecycle-configured
// cache: serve-stale armed, optional prefetch and failure cooldown.
// TestCacheHitEchoesItsAsker: a reply copies its query's ID, opcode, RD
// bit and question, so a cached answer serves an asker only what that
// asker's own miss would have drawn. A hit patches the header bits; a
// query differing in class or EDNS(0) gets its own entry.
func TestCacheHitEchoesItsAsker(t *testing.T) {
	_, fe, recursor, _ := newStaleFleet(t, CacheConfig{}, 0, ProtoDoH)
	resolve := func(q *dnswire.Message) *dnswire.Message {
		t.Helper()
		ans, err := fe.Resolve(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := dnswire.UnpackInto(&m, ans.Wire); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	resolve(dnswire.NewQuery(1, "echo.test.", dnswire.TypeHTTPS, false))

	hit := dnswire.NewQuery(2, "echo.test.", dnswire.TypeHTTPS, false)
	hit.Opcode, hit.RecursionDesired = 2, false
	if m := resolve(hit); recursor.queries != 1 || m.ID != 2 || m.Opcode != 2 || m.RecursionDesired {
		t.Fatalf("hit: %d recursor queries, reply ID %d opcode %d RD %v; want 1, 2, 2, false",
			recursor.queries, m.ID, m.Opcode, m.RecursionDesired)
	}

	chaos := dnswire.NewQuery(3, "echo.test.", dnswire.TypeHTTPS, false)
	chaos.Question[0].Class = 3
	plain := dnswire.NewQuery(4, "echo.test.", dnswire.TypeHTTPS, false)
	plain.Additional = nil
	for _, q := range []*dnswire.Message{chaos, plain} {
		m := resolve(q)
		if m.Question[0] != q.Question[0] || (m.OPT() == nil) != (q.OPT() == nil) {
			t.Errorf("query %d: reply question %+v, OPT %v; want %+v, OPT %v",
				q.ID, m.Question[0], m.OPT() != nil, q.Question[0], q.OPT() != nil)
		}
	}
	if recursor.queries != 3 {
		t.Errorf("recursor saw %d queries, want 3: class and EDNS each key their own entry", recursor.queries)
	}
}

func newStaleFleet(t *testing.T, cfg CacheConfig, cooldown time.Duration, proto Protocol) (*Client, *Frontend, *stubRecursor, *simnet.Clock) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fl := NewFleet(net, clock, FleetConfig{
		Balance: BalanceRoundRobin, Seed: 1,
		Cache: cfg, FailureCooldown: cooldown,
	})
	fe := fl.Add(proto, "fe0", recursor, frontendAddr(0))
	return fl.Client, fe, recursor, clock
}

// TestStaleServedExactlyAtTTLExpiry pins the TTL boundary: at the exact
// expiry instant the entry is no longer fresh — a healthy upstream is
// consulted, a dead one triggers RFC 8767 serve-stale with capped TTLs.
// Run per protocol: serve-stale is engine behavior, so every envelope
// must exhibit it (and report it to the stub's stale counter).
func TestStaleServedExactlyAtTTLExpiry(t *testing.T) {
	for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		t.Run(proto.String(), func(t *testing.T) {
			client, fe, recursor, clock := newStaleFleet(t,
				CacheConfig{StaleWindow: 10 * time.Minute}, 0, proto)
			if _, err := client.Query("edge.test", dnswire.TypeHTTPS, false); err != nil {
				t.Fatal(err)
			}

			// One second before expiry: still fresh, recursor idle.
			clock.Advance(299 * time.Second)
			resp, err := client.Query("edge.test", dnswire.TypeHTTPS, false)
			if err != nil {
				t.Fatal(err)
			}
			if recursor.queries != 1 {
				t.Fatalf("entry leaked to recursor before expiry (%d queries)", recursor.queries)
			}
			if resp.Answer[0].TTL != 1 {
				t.Errorf("TTL one second before expiry = %d, want 1", resp.Answer[0].TTL)
			}

			// Exactly at expiry: not fresh anymore. Upstream healthy →
			// refreshed.
			clock.Advance(1 * time.Second)
			if _, err := client.Query("edge.test", dnswire.TypeHTTPS, false); err != nil {
				t.Fatal(err)
			}
			if recursor.queries != 2 {
				t.Fatalf("entry at exact expiry not refreshed: recursor saw %d queries, want 2", recursor.queries)
			}

			// Again at the new entry's exact expiry, but with the recursor
			// dead: the stale body must be served, TTLs capped.
			clock.Advance(300 * time.Second)
			recursor.fail = true
			resp, err = client.Query("edge.test", dnswire.TypeHTTPS, false)
			if err != nil {
				t.Fatalf("stale-capable query failed: %v", err)
			}
			if resp.Answer[0].TTL != DefaultStaleTTL {
				t.Errorf("stale TTL = %d, want capped at %d", resp.Answer[0].TTL, DefaultStaleTTL)
			}
			if st := fe.Stats(); st.StaleServed != 1 || st.UpstreamFailures != 1 {
				t.Errorf("stats after stale serve: %+v", st)
			}
			if got := client.StaleAnswers(); got != 1 {
				t.Errorf("client counted %d stale answers, want 1", got)
			}
		})
	}
}

// TestStaleWindowEdge pins the other end of the lifecycle: one second
// inside TTL+StaleWindow the answer is servable, at the exact edge the
// entry is evicted and a dead upstream means a hard error (DoH) or a
// synthesized SERVFAIL (DoT/DoQ, which have no status channel).
func TestStaleWindowEdge(t *testing.T) {
	const window = 10 * time.Minute
	client, fe, recursor, clock := newStaleFleet(t, CacheConfig{StaleWindow: window}, 0, ProtoDoH)
	if _, err := client.Query("win.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	recursor.fail = true

	// One second inside the window: stale served.
	clock.Advance(300*time.Second + window - time.Second)
	if _, err := client.Query("win.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatalf("query one second inside the stale window failed: %v", err)
	}
	if fe.Stats().StaleServed != 1 {
		t.Fatalf("stale not served inside the window: %+v", fe.Stats())
	}

	// Exactly at TTL + StaleWindow: evicted; nothing to serve, upstream
	// dead → the whole exchange fails.
	clock.Advance(time.Second)
	if _, err := client.Query("win.test", dnswire.TypeHTTPS, false); err == nil {
		t.Error("query at the exact stale-window edge succeeded; entry should be gone")
	}
	if st := fe.Stats(); st.StaleServed != 1 {
		t.Errorf("stale served past the window: %+v", st)
	}
	if cs := fe.Cache.Stats(); cs.Entries != 0 || cs.Expirations != 1 {
		t.Errorf("entry not evicted at window edge: %+v", cs)
	}
}

// TestStaleDuringCooldownVsHardFailure distinguishes the two serve-stale
// triggers: a hard handler failure arms the cooldown (and serves stale),
// and during the cooldown stale is served *without* re-trying the
// handler; past the cooldown the handler is probed again.
func TestStaleDuringCooldownVsHardFailure(t *testing.T) {
	const cooldown = 60 * time.Second
	client, fe, recursor, clock := newStaleFleet(t, CacheConfig{StaleWindow: time.Hour}, cooldown, ProtoDoH)
	if _, err := client.Query("cd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}

	// Expire the entry, kill the recursor: hard failure → stale + cooldown.
	clock.Advance(301 * time.Second)
	recursor.fail = true
	if _, err := client.Query("cd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 2 {
		t.Fatalf("hard failure path did not try the handler: %d queries", recursor.queries)
	}
	if st := fe.Stats(); st.StaleServed != 1 || st.UpstreamFailures != 1 {
		t.Fatalf("after hard failure: %+v", st)
	}

	// Within the cooldown: stale served with NO handler attempt.
	clock.Advance(10 * time.Second)
	if _, err := client.Query("cd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 2 {
		t.Errorf("benched handler was re-tried during cooldown (%d queries)", recursor.queries)
	}
	if st := fe.Stats(); st.StaleServed != 2 || st.UpstreamFailures != 1 {
		t.Errorf("during cooldown: %+v", st)
	}

	// Past the cooldown, recursor still dead: probed again, stale again.
	clock.Advance(cooldown)
	if _, err := client.Query("cd.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 3 {
		t.Errorf("handler not re-probed after cooldown (%d queries)", recursor.queries)
	}

	// Recursor back: fresh answer, cooldown cleared, full TTL again.
	recursor.fail = false
	clock.Advance(cooldown)
	resp, err := client.Query("cd.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer[0].TTL != 300 {
		t.Errorf("recovered answer TTL = %d, want fresh 300", resp.Answer[0].TTL)
	}
}

// TestServFailServesStaleWhenAvailable: a SERVFAIL from a struggling
// recursor is replaced by a stale answer (RFC 8767 prefers stale data
// over errors), and the member is not benched (healthy transport).
func TestServFailServesStaleWhenAvailable(t *testing.T) {
	client, fe, recursor, clock := newStaleFleet(t, CacheConfig{StaleWindow: time.Hour}, 0, ProtoDoH)
	if _, err := client.Query("sf.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(301 * time.Second)
	recursor.servfail = true
	resp, err := client.Query("sf.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("SERVFAIL leaked despite stale data: rcode=%v answers=%d", resp.RCode, len(resp.Answer))
	}
	if fe.Stats().StaleServed != 1 {
		t.Errorf("stale not served over SERVFAIL: %+v", fe.Stats())
	}
	for _, st := range client.Pool.Stats() {
		if st.Down {
			t.Errorf("member %s benched for SERVFAIL", st.Name)
		}
	}
}

// TestNegativeCacheHonoursSOAMinimum: NXDOMAIN answers are cached for
// min(SOA TTL, SOA minimum) per RFC 2308, absorb repeat misses, and
// expire on the virtual clock.
func TestNegativeCacheHonoursSOAMinimum(t *testing.T) {
	client, fe, recursor, clock := newStaleFleet(t, CacheConfig{}, 0, ProtoDoH)
	recursor.negative = true
	recursor.soaTTL, recursor.soaMinimum = 900, 120 // minimum wins

	resp, err := client.Query("nx.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", resp.RCode)
	}
	// Repeat misses inside the negative TTL never reach the recursor.
	for i := 0; i < 3; i++ {
		clock.Advance(30 * time.Second)
		if _, err := client.Query("nx.test", dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	if recursor.queries != 1 {
		t.Errorf("negative cache leaked %d queries to the recursor, want 1", recursor.queries)
	}
	if st := fe.Stats(); st.NegativeHits != 3 {
		t.Errorf("negative hits = %d, want 3", st.NegativeHits)
	}
	if cs := fe.Cache.Stats(); cs.NegativeEntries != 1 {
		t.Errorf("cache negative stats: %+v", cs)
	}
	// Past min(TTL, minimum)=120s (30+30+30 already elapsed, add 31):
	// the recursor is consulted again.
	clock.Advance(31 * time.Second)
	if _, err := client.Query("nx.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 2 {
		t.Errorf("expired negative entry not refreshed: %d recursor queries, want 2", recursor.queries)
	}
}

// TestNegativeTTLCappedByMaxNegativeTTL: an absurd SOA minimum cannot pin
// a negative answer beyond DefaultMaxNegativeTTL (RFC 2308 §5).
func TestNegativeTTLCappedByMaxNegativeTTL(t *testing.T) {
	const cap = DefaultMaxNegativeTTL
	client, _, recursor, clock := newStaleFleet(t, CacheConfig{}, 0, ProtoDoH)
	recursor.negative = true
	recursor.soaTTL, recursor.soaMinimum = 604800, 604800 // a week

	if _, err := client.Query("bignx.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	clock.Advance(cap - time.Second)
	if _, err := client.Query("bignx.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 1 {
		t.Fatalf("negative entry expired before the cap: %d queries", recursor.queries)
	}
	clock.Advance(2 * time.Second)
	if _, err := client.Query("bignx.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 2 {
		t.Errorf("week-long SOA minimum not capped at %v: %d recursor queries, want 2", cap, recursor.queries)
	}
}

// TestRefreshAheadPrefetch: a hit past the refresh-ahead threshold is
// served from cache but renews the entry upstream on the same exchange,
// so the entry never goes stale under steady traffic.
func TestRefreshAheadPrefetch(t *testing.T) {
	client, fe, recursor, clock := newStaleFleet(t,
		CacheConfig{StaleWindow: time.Hour, RefreshAhead: 0.8}, 0, ProtoDoH)
	if _, err := client.Query("pf.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}

	// Before the threshold (0.8×300 = 240 s): no prefetch.
	clock.Advance(200 * time.Second)
	if _, err := client.Query("pf.test", dnswire.TypeHTTPS, false); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 1 {
		t.Fatalf("prefetch fired before the threshold: %d queries", recursor.queries)
	}

	// Past the threshold: served from cache AND refreshed upstream.
	clock.Advance(50 * time.Second) // 250 s elapsed
	resp, err := client.Query("pf.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer[0].TTL != 50 {
		t.Errorf("prefetch-armed hit TTL = %d, want aged 50 (still the old entry)", resp.Answer[0].TTL)
	}
	if recursor.queries != 2 {
		t.Fatalf("prefetch did not refresh upstream: %d queries", recursor.queries)
	}
	if st := fe.Stats(); st.Prefetches != 1 || st.CacheHits != 2 {
		t.Errorf("after prefetch: %+v", st)
	}

	// The renewed entry carries a full TTL from the prefetch moment:
	// 299 s later it is still fresh and served from cache.
	clock.Advance(299 * time.Second)
	resp, err = client.Query("pf.test", dnswire.TypeHTTPS, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer[0].TTL != 1 {
		t.Errorf("renewed entry TTL = %d, want 1", resp.Answer[0].TTL)
	}
	// That hit is itself past the threshold again → second prefetch.
	if fe.Stats().Prefetches != 2 {
		t.Errorf("steady traffic did not keep prefetching: %+v", fe.Stats())
	}
	if recursor.queries != 3 {
		t.Errorf("recursor saw %d queries, want 3 (initial + 2 prefetches)", recursor.queries)
	}
}
