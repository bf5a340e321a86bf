package transport

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// cannedRecursor answers from prebuilt responses, one per question,
// patching only the ID, so an exchange through it counts the serving
// layer's allocations and nothing of a handler's. A handler's answer
// belongs to its caller, who releases it (simnet.DNSHandler), so one
// Reply-built message cannot be served twice: each call hands out a value
// copy of it, which Release leaves alone, in a slot this test's serial
// exchanges are done with by the next call.
type cannedRecursor map[dnswire.Question]*cannedAnswer

type cannedAnswer struct{ built, out dnswire.Message }

func (c cannedRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	a := c[q.Question[0]]
	a.out = a.built
	a.out.ID = q.ID
	return &a.out
}

// replyingRecursor is what a real handler does: a fresh Reply per query
// carrying records it shares between answers.
type replyingRecursor map[dnswire.Question]*cannedAnswer

func (c replyingRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	a := c[q.Question[0]]
	resp := q.Reply()
	resp.RecursionAvailable = true
	resp.Answer, resp.Authority = a.built.Answer, a.built.Authority
	return resp
}

// TestExchangeAllocBudgets pins what one exchange, answer handed back with
// Recycle, allocates on a warm fleet, per strategy and protocol: nothing
// when the shared cache answers, and nothing when every query misses a 1×1
// cache either — the frontend encodes the recursor's answer once into
// recycled envelope scratch, the cache copies those bytes into the entry it
// evicts, and the client decodes into the message it was just handed back.
// A second encode, a fresh entry or a fresh message graph would each show
// up here — and so would a reply skeleton the frontend did not release, on
// the leg whose recursor builds one per query, or a raced loser
// whose answer the client did not take back. The scan-day legs ask one
// name what the daily scan asks, HTTPS, A, AAAA, SOA and NS in turn: each
// answer decodes into a message whose sections last held its own type's
// records, or a fresh RDATA value would show up here.
func TestExchangeAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	recursor := cannedRecursor{}
	answer := func(name string, qtype dnswire.Type, rrs ...dnswire.RR) dnswire.Question {
		resp := dnswire.NewQuery(1, name, qtype, true).Reply()
		resp.RecursionAvailable = true
		for _, rr := range rrs {
			if rr.Type == dnswire.TypeSOA && qtype != dnswire.TypeSOA {
				resp.Authority = append(resp.Authority, rr)
			} else {
				resp.Answer = append(resp.Answer, rr)
			}
		}
		recursor[resp.Question[0]] = &cannedAnswer{built: *resp}
		return resp.Question[0]
	}
	rr := func(name string, t dnswire.Type, data dnswire.RData) dnswire.RR {
		return dnswire.RR{Name: name, Type: t, Class: dnswire.ClassINET, TTL: 300, Data: data}
	}
	https := &dnswire.SVCBData{Priority: 1, Target: "."}
	if err := https.Params.SetALPN([]string{"h2", "h3"}); err != nil {
		t.Fatal(err)
	}
	if err := https.Params.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("192.0.2.1")}); err != nil {
		t.Fatal(err)
	}
	soa := &dnswire.SOAData{MName: "ns1.budget.test.", RName: "hostmaster.budget.test.", Minimum: 300}
	// One NODATA and one HTTPS answer: alternating shapes are what recycled
	// slots have to survive.
	twoNames := []dnswire.Question{
		answer("one.budget.test.", dnswire.TypeHTTPS, rr("budget.test.", dnswire.TypeSOA, soa)),
		answer("two.budget.test.", dnswire.TypeHTTPS, rr("two.budget.test.", dnswire.TypeHTTPS, https)),
	}
	const scanned = "scan.budget.test."
	scanDay := []dnswire.Question{
		answer(scanned, dnswire.TypeHTTPS, rr(scanned, dnswire.TypeHTTPS, https)),
		answer(scanned, dnswire.TypeA, rr(scanned, dnswire.TypeA, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}),
			rr(scanned, dnswire.TypeA, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.2")})),
		answer(scanned, dnswire.TypeAAAA, rr(scanned, dnswire.TypeAAAA, &dnswire.AAAAData{Addr: netip.MustParseAddr("2001:db8::1")})),
		answer(scanned, dnswire.TypeSOA, rr(scanned, dnswire.TypeSOA, soa)),
		answer(scanned, dnswire.TypeNS, rr(scanned, dnswire.TypeNS, &dnswire.NSData{Host: "ns1.budget.test."}),
			rr(scanned, dnswire.TypeNS, &dnswire.NSData{Host: "ns2.budget.test."})),
	}
	for _, strategy := range []StrategyKind{StrategySerial, StrategyRace} {
		for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
			for _, tc := range []struct {
				kind      string
				hit       bool
				cache     CacheConfig
				recursor  simnet.DNSHandler
				questions []dnswire.Question
			}{
				{"hit", true, CacheConfig{}, recursor, twoNames},
				{"miss", false, CacheConfig{Shards: 1, ShardCapacity: 1}, recursor, twoNames},
				{"miss with a reply built per query", false, CacheConfig{Shards: 1, ShardCapacity: 1}, replyingRecursor(recursor), twoNames},
				{"scan-day hit", true, CacheConfig{}, recursor, scanDay},
				{"scan-day miss", false, CacheConfig{Shards: 1, ShardCapacity: 1}, recursor, scanDay},
			} {
				leg := fmt.Sprintf("%s %s %s", strategy, proto, tc.kind)
				// Every RTT lies past the race stagger, so every race fires,
				// and one draw in sixteen is a tail the partner beats, so
				// losers come from both sides of a race.
				draws := 0
				net, clock := testNet()
				fl := NewFleet(net, clock, FleetConfig{
					Balance: BalanceRoundRobin, Seed: 1, Cache: tc.cache,
					Strategy: StrategyConfig{Kind: strategy},
					Latency: func(*Upstream) time.Duration {
						draws++
						if draws%16 == 0 {
							return 30 * time.Millisecond
						}
						return raceStagger + time.Millisecond
					},
				})
				for i := 0; i < 2; i++ {
					fl.Add(proto, "fe", tc.recursor, frontendAddr(i))
				}
				q := dnswire.NewQuery(1, scanned, dnswire.TypeHTTPS, true)
				i := 0
				exchange := func() {
					q.ID++
					q.Question[0] = tc.questions[i%len(tc.questions)]
					i++
					m, err := fl.Client.Exchange(q)
					if err != nil || m.RCode != dnswire.RCodeNoError {
						t.Fatalf("%s: %v, %v", leg, err, m)
					}
					fl.Client.Recycle(m)
				}
				for j := 0; j < 8; j++ {
					exchange()
				}
				before, cacheBefore, stratBefore, first := fl.TotalStats(), fl.Cache.Stats(), fl.StrategyStats(), i
				if n := testing.AllocsPerRun(200, exchange); n != 0 {
					t.Errorf("%s: %v allocs per exchange, want 0", leg, n)
				}
				// Every measured exchange must take the leg's path, or a few
				// allocating ones would round down to 0 among the rest. On a
				// miss leg each primary misses and evicts; a raced partner
				// then hits the entry its primary just inserted.
				st, strat, exchanges := fl.TotalStats(), fl.StrategyStats(), uint64(i-first)
				hits := st.CacheHits - before.CacheHits
				misses := st.Served - before.Served - hits
				evictions := fl.Cache.Stats().Evictions - cacheBefore.Evictions
				attempts := strat.Attempts - stratBefore.Attempts
				wantMisses := exchanges
				if tc.hit {
					wantMisses = 0
				}
				if misses != wantMisses || evictions != wantMisses || hits != attempts-misses {
					t.Errorf("%s: %d exchanges, %d attempts, %d hits, %d misses, %d evictions: not the cache path it claims to measure",
						leg, exchanges, attempts, hits, misses, evictions)
				}
				if races := strat.Races - stratBefore.Races; (races > 0) != (strategy == StrategyRace) {
					t.Errorf("%s: %d races: not the strategy path it claims to measure", leg, races)
				}
			}
		}
	}
}

// Under SetReuseAnswers the client already holds a claim on the answer it
// last returned; Recycle must drop that claim, or the next exchange would
// pool the message a second time and two later decodes would share it.
func TestRecycleUnderReuseAnswersPoolsOnce(t *testing.T) {
	client, _, _, _, _ := newTestFleet(t, 2, BalanceRoundRobin, ProtoDoH, ProtoDoT)
	client.SetReuseAnswers(true)
	first, err := client.Query("once.test", dnswire.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	client.Recycle(first)
	live, err := client.Query("twice.test", dnswire.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the pool still holds, it must not hold the live answer.
	for i := 0; i < 8; i++ {
		if m := client.getMsg(dnswire.TypeA); m == live {
			t.Fatal("the answer in the caller's hands is also in the message pool")
		}
	}
	if live.Question[0].Name != "twice.test." || len(live.Answer) != 1 {
		t.Errorf("live answer damaged: %v", live)
	}
}

// TestRecycledAnswerIsPoisonedUnderRace: under the race detector an answer
// handed back reads as no real answer does — QR clear, an RCODE past the
// extended range, AD set, records of a reserved type under an invalid name
// — so a read after Recycle moves whatever it feeds instead of passing for
// a plausible answer. The RDATA stays for the next decode to reuse.
func TestRecycledAnswerIsPoisonedUnderRace(t *testing.T) {
	if !testrace.Enabled {
		t.Skip("answers are poisoned only under the race detector")
	}
	client, _, _, _, _ := newTestFleet(t, 1, BalanceRoundRobin)
	m, err := client.Query("poison.test", dnswire.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Answer[0].Data
	client.Recycle(m)
	if m.Response || m.RCode != 0xffff || !m.AuthenticatedData || m.Question[0].Name != poisonName ||
		len(m.Answer) != 1 || m.Answer[0].Type != 0 || m.Answer[0].Name != poisonName || m.Answer[0].Data != data {
		t.Errorf("recycled answer not poisoned: %+v", m)
	}
}
