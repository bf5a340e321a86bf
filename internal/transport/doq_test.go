package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// doqFixture stands up one DoQ frontend and dials a session directly.
func doqFixture(t *testing.T) *doqSession {
	t.Helper()
	net, clock := testNet()
	fe := &Frontend{Name: "doq0", Proto: ProtoDoQ, Handler: &stubRecursor{ttl: 300},
		Cache: NewCacheWith(clock, CacheConfig{Shards: 4, ShardCapacity: 64})}
	net.RegisterService(frontendAddr(0), fe)
	s, _ := fe.dial(net, frontendAddr(0), false)
	return s.(*doqSession)
}

// TestDoQStreamIsolation is the satellite edge: a protocol violation on
// one stream (non-zero message ID → DOQ_PROTOCOL_ERROR reset) must not
// disturb concurrent or subsequent streams on the same session.
func TestDoQStreamIsolation(t *testing.T) {
	sess := doqFixture(t)

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

	// First exchange: QUIC handshake (1 RTT) + exchange (1 RTT).
	t0 := clock.Now()
	if _, err := client.Query("one.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(t0); got != 2*rtt {
		t.Errorf("fresh session exchange charged %v, want %v (handshake + exchange)", got, 2*rtt)
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
	sess := doqFixture(t)
	if _, _, err := exchangeVia(sess, q); !errors.Is(err, ErrStreamReset) {
		t.Errorf("non-zero wire ID accepted: %v", err)
	}
}

// doqRaw is what a client sends on a DoQ stream: the 2-byte length prefix
// and the packed query.
func doqRaw(t testing.TB, q *dnswire.Message) []byte {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint16(nil, uint16(len(wire))), wire...)
}

// FuzzDoQStream drives the server half of a DoQ stream with raw stream
// bytes. Only a stream whose length prefix matches the bytes behind it,
// whose query decodes, and whose message ID is 0 may be answered, with a
// decodable reply that keeps ID 0; anything else resets the stream and
// nothing but the stream. Pooled stream scratch that has just served a
// valid stream must give the same verdict and the same reply bytes as
// fresh scratch.
func FuzzDoQStream(f *testing.F) {
	valid := doqRaw(f, dnswire.NewQuery(0, "site0000.example", dnswire.TypeHTTPS, true))
	twoQuestions := dnswire.NewQuery(0, "a.test", dnswire.TypeA, false)
	twoQuestions.Question = append(twoQuestions.Question, twoQuestions.Question[0])
	f.Add(valid)
	f.Add(doqRaw(f, dnswire.NewQuery(0, "a.very.deep.subdomain.of.site0001.example", dnswire.TypeA, false)))
	f.Add(doqRaw(f, dnswire.NewQuery(7, "site0000.example", dnswire.TypeHTTPS, true))) // ID not 0
	f.Add(doqRaw(f, unparseableQuery(0, "bad.test")))
	f.Add(doqRaw(f, twoQuestions))                                          // answered FORMERR
	f.Add(append(bytes.Clone(valid), 0))                                    // prefix one short
	f.Add(valid[:len(valid)-1])                                             // prefix one long
	f.Add(append(binary.BigEndian.AppendUint16(nil, 0xffff), valid[2:]...)) // prefix far off
	f.Add([]byte{0})
	f.Add([]byte{})
	fe := &Frontend{Name: "doq0", Proto: ProtoDoQ, Handler: &stubRecursor{ttl: 300}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantStale, wantErr := new(frameStream).serve(fe, raw, nil)
		st := frameStreamPool.Get().(*frameStream)
		defer func() {
			st.buf = dnswire.TrimRecycled(st.buf)
			frameStreamPool.Put(st)
		}()
		if _, _, err := st.serve(fe, valid, nil); err != nil {
			t.Fatalf("valid stream reset: %v", err)
		}
		got, gotStale, gotErr := st.serve(fe, raw, nil)
		if (gotErr == nil) != (wantErr == nil) || gotStale != wantStale || !bytes.Equal(got, want) {
			t.Fatalf("reused scratch: %x stale=%v err=%v; fresh scratch: %x stale=%v err=%v",
				got, gotStale, gotErr, want, wantStale, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(wantErr, ErrStreamReset) {
				t.Fatalf("stream failed with %v, not a stream reset", wantErr)
			}
			return
		}
		if len(raw) < 4 || int(binary.BigEndian.Uint16(raw)) != len(raw)-2 || binary.BigEndian.Uint16(raw[2:]) != 0 {
			t.Fatalf("answered a stream with a bad prefix or a non-zero ID: %x", raw)
		}
		m := new(dnswire.Message)
		if err := dnswire.UnpackInto(m, want); err != nil || m.ID != 0 || !m.Response {
			t.Fatalf("reply %x: %v, %+v", want, err, m)
		}
	})
}
