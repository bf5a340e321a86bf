package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// doqFixture stands up one DoQ frontend and dials a session directly.
func doqFixture(t *testing.T) (*DoQSession, *DoQServer, *stubRecursor) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	srv := NewDoQServer("doq0", recursor, NewCacheWith(clock, CacheConfig{Shards: 4, ShardCapacity: 64}), 0)
	net.RegisterService(frontendAddr(0), srv)
	return srv.DialDoQ(net, frontendAddr(0), false), srv, recursor
}

// TestDoQStreamIsolation is the satellite edge: a protocol violation on
// one stream (non-zero message ID → DOQ_PROTOCOL_ERROR reset) must not
// disturb concurrent or subsequent streams on the same session.
func TestDoQStreamIsolation(t *testing.T) {
	sess, srv, _ := doqFixture(t)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 5 {
				// The bad citizen: a non-zero ID resets its own stream.
				bad := dnswire.NewQuery(99, "bad.test", dnswire.TypeA, false)
				if _, _, err := exchangeVia(sess, bad); !errors.Is(err, ErrStreamReset) {
					errs[i] = fmt.Errorf("bad stream got %v, want ErrStreamReset", err)
				}
				return
			}
			q := dnswire.NewQuery(0, fmt.Sprintf("s%d.test", i), dnswire.TypeA, false)
			m, _, err := exchangeVia(sess, q)
			if err != nil {
				errs[i] = err
				return
			}
			if len(m.Answer) != 1 {
				errs[i] = fmt.Errorf("answer count %d", len(m.Answer))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
	st := srv.SessionStats()
	if st.Resets != 1 {
		t.Errorf("resets = %d, want 1", st.Resets)
	}
	if st.Streams != n {
		t.Errorf("streams = %d, want %d", st.Streams, n)
	}
	// The session survives its reset stream.
	if _, _, err := exchangeVia(sess, dnswire.NewQuery(0, "after.test", dnswire.TypeA, false)); err != nil {
		t.Errorf("session dead after an isolated stream reset: %v", err)
	}
}

// TestDoQClientZeroRTTResumption checks the session lifecycle the client
// maintains: the first session to a member is a full handshake, a
// session re-established after a drop resumes with 0-RTT on the retained
// ticket, and the setup costs land on the virtual clock.
func TestDoQClientZeroRTTResumption(t *testing.T) {
	client, fl, _, net, clock := newTestFleet(t, 1, BalanceRoundRobin, ProtoDoQ)
	const rtt = 10 * time.Millisecond
	client.Latency = func(*Upstream) time.Duration { return rtt }
	client.ChargeLatency = true
	svc, err := net.Service(fl.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := svc.(*DoQServer)

	// First exchange: QUIC handshake (1 RTT) + exchange (1 RTT).
	t0 := clock.Now()
	if _, err := client.Query("one.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(t0); got != 2*rtt {
		t.Errorf("fresh session exchange charged %v, want %v (handshake + exchange)", got, 2*rtt)
	}
	if st := srv.SessionStats(); st.Sessions != 1 || st.Resumed != 0 {
		t.Fatalf("after first dial: %+v", st)
	}

	// Second exchange rides the cached session: no setup at all.
	t0 = clock.Now()
	if _, err := client.Query("two.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(t0); got != rtt {
		t.Errorf("cached session exchange charged %v, want %v", got, rtt)
	}

	// Kill and revive the frontend: the session died, but the ticket
	// survives, so the redial is 0-RTT — only the exchange is charged.
	net.SetAddrDown(fl.Addrs[0].Addr(), true)
	if _, err := client.Query("down.test", dnswire.TypeA, false); err == nil {
		t.Fatal("query succeeded through a dead session")
	}
	net.SetAddrDown(fl.Addrs[0].Addr(), false)
	clock.Advance(DefaultCooldown + time.Second)
	t0 = clock.Now()
	if _, err := client.Query("three.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(t0); got != rtt {
		t.Errorf("0-RTT resumption charged %v, want %v (no handshake)", got, rtt)
	}
	st := srv.SessionStats()
	if st.Sessions != 2 || st.Resumed != 1 {
		t.Errorf("after resumption: %+v", st)
	}
}

// TestDoQWireIDIsZero: the client rewrites the message ID to the
// mandatory zero on the stream and restores the caller's ID on the
// answer (RFC 9250 §4.2.1).
func TestDoQWireIDIsZero(t *testing.T) {
	client, _, recursor, _, _ := newTestFleet(t, 1, BalanceRoundRobin, ProtoDoQ)
	_ = recursor
	q := dnswire.NewQuery(12345, "id.test", dnswire.TypeA, false)
	m, err := client.Exchange(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 12345 {
		t.Errorf("caller ID not restored: got %d", m.ID)
	}
	// Direct session use enforces the zero-ID rule the client satisfies.
	sess, _, _ := doqFixture(t)
	if _, _, err := exchangeVia(sess, q); !errors.Is(err, ErrStreamReset) {
		t.Errorf("non-zero wire ID accepted: %v", err)
	}
}
