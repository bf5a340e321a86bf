package transport

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// wrongReplyKinds are the ways a reply can fail to answer its query: it
// carries another question, another ID, or the TC bit.
var wrongReplyKinds = []string{"question", "id", "tc"}

// hostileRecursor answers like its stub until wrong is set, then turns
// every reply into one of the wrongReplyKinds.
type hostileRecursor struct {
	stub  stubRecursor
	wrong string
}

func (h *hostileRecursor) HandleDNS(q *dnswire.Message) *dnswire.Message {
	resp := h.stub.HandleDNS(q)
	switch h.wrong {
	case "question":
		resp.Question[0] = dnswire.Question{Name: "evil.example.", Type: dnswire.TypeA, Class: dnswire.ClassINET}
	case "id":
		resp.ID++
	case "tc":
		resp.Truncated = true
	}
	return resp
}

// TestWrongHandlerReplyIsNeitherCachedNorServed: per envelope, a handler
// reply that does not answer the query is an upstream failure. Nothing is
// cached, so the next query is no cache hit; a stale entry for the query
// covers for the failure; and a refresh-ahead prefetch that gets one
// leaves the fresh entry as it was.
func TestWrongHandlerReplyIsNeitherCachedNorServed(t *testing.T) {
	for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		for _, kind := range wrongReplyKinds {
			t.Run(p.String()+"/"+kind, func(t *testing.T) {
				net, clock := testNet()
				h := &hostileRecursor{stub: stubRecursor{ttl: 60}, wrong: kind}
				fl := NewFleet(net, clock, FleetConfig{Seed: 1,
					Cache: CacheConfig{Shards: 1, ShardCapacity: 8, StaleWindow: time.Hour, RefreshAhead: 0.5}})
				fe := fl.Add(p, "fe0", h, frontendAddr(0))
				for i := 0; i < 2; i++ {
					m, err := fl.Client.Query("good.example.", dnswire.TypeHTTPS, false)
					if err == nil && m.RCode != dnswire.RCodeServFail {
						t.Fatalf("query %d: served %v %s, want an upstream failure", i, m.Question, m.RCode)
					}
				}
				if n := fl.Cache.Stats().Entries; n != 0 {
					t.Fatalf("cache holds %d entries after wrong replies", n)
				}
				if st := fe.Stats(); st.CacheHits != 0 || st.UpstreamFailures != 2 {
					t.Fatalf("frontend stats %+v: want 0 hits and 2 upstream failures", st)
				}

				h.wrong = ""
				if _, err := fl.Client.Query("good.example.", dnswire.TypeHTTPS, false); err != nil {
					t.Fatal(err)
				}
				clock.Advance(2 * time.Minute)
				h.wrong = kind
				m, err := fl.Client.Query("good.example.", dnswire.TypeHTTPS, false)
				if err != nil {
					t.Fatal(err)
				}
				if fl.Client.StaleAnswers() != 1 || len(m.Answer) != 1 || m.Answer[0].Name != "good.example." {
					t.Fatalf("got %d stale answers and answer %v, want the stale good.example. entry",
						fl.Client.StaleAnswers(), m.Answer)
				}

				h.wrong = ""
				if _, err := fl.Client.Query("good.example.", dnswire.TypeHTTPS, false); err != nil {
					t.Fatal(err)
				}
				clock.Advance(40 * time.Second)
				h.wrong = kind
				for i := 0; i < 2; i++ {
					m, err := fl.Client.Query("good.example.", dnswire.TypeHTTPS, false)
					if err != nil || m.Question[0].Name != "good.example." {
						t.Fatalf("hit %d after a wrong prefetch reply: %v %v", i, m, err)
					}
				}
				if n := fe.Stats().Prefetches; n != 0 {
					t.Fatalf("%d prefetches stored a wrong reply", n)
				}
			})
		}
	}
}

// lyingDialer opens sessions that rewrite every decoded answer into an
// answer to some other query, the way a hostile or buggy frontend would.
type lyingDialer struct {
	dialer
	wrong string
}

func (d lyingDialer) dial(n *simnet.Network, ap netip.AddrPort, resumed bool) (session, int) {
	s, setup := d.dialer.dial(n, ap, resumed)
	return lyingSession{s, d.wrong}, setup
}

type lyingSession struct {
	session
	wrong string
}

func (s lyingSession) Exchange(q, into *dnswire.Message, tr *obs.Trace) (bool, error) {
	stale, err := s.session.Exchange(q, into, tr)
	if err == nil {
		if s.wrong == "id" {
			into.ID++
		} else {
			into.Question[0].Name = "evil.example."
		}
	}
	return stale, err
}

// TestWrongDecodedAnswerFailsTheAttempt: per envelope, a decoded answer
// whose ID or question differs from the query's is a failed attempt that
// benches the member, never an answer handed to the caller.
func TestWrongDecodedAnswerFailsTheAttempt(t *testing.T) {
	for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		for _, kind := range wrongReplyKinds[:2] {
			t.Run(p.String()+"/"+kind, func(t *testing.T) {
				client, fl, _, net, _ := newTestFleet(t, 1, BalanceP2, p)
				svc, _ := net.Service(fl.Addrs[0])
				net.RegisterService(fl.Addrs[0], lyingDialer{svc.(dialer), kind})
				if m, err := client.Query("good.example.", dnswire.TypeHTTPS, false); err == nil {
					t.Fatalf("served %v (ID %d), want a failed attempt", m.Question, m.ID)
				}
				if st := fl.Pool.Stats()[0]; st.Failures != 1 || !st.Down {
					t.Fatalf("pool member %+v: want 1 failure and benched", st)
				}
			})
		}
	}
}
