package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// unparseableQuery is a query the client packs but no frontend can
// decode: an A record whose RDATA is three bytes long. It is the one
// input that drives all three envelopes into their per-query failure —
// a DoH 400, a DoT framing violation, a DoQ stream reset.
func unparseableQuery(id uint16, name string) *dnswire.Message {
	q := dnswire.NewQuery(id, name, dnswire.TypeA, false)
	q.Additional = append(q.Additional, dnswire.RR{
		Name: "x.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		Data: &dnswire.RawData{Bytes: []byte{1, 2, 3}},
	})
	return q
}

// TestAttemptOutcomeByEnvelope pins what one attempt costs, and what it
// leaves in the pool, per envelope: the setup round-trips a dial pays (2
// for a fresh DoT connection, 1 for a fresh DoQ session, 0 for a resumed
// one and for DoH), which failures bench the member, which cost their
// RTT, and which drop the member's session so the next attempt dials
// again; then the attempts that never reach an envelope, and the error of
// an exchange every member failed.
func TestAttemptOutcomeByEnvelope(t *testing.T) {
	t.Run("dial failure", attemptDialFailures)
	t.Run("all members fail", allMembersFailedErrorText)
	const rtt = 10 * time.Millisecond
	type want struct {
		cost     time.Duration
		err      error // nil: an answer; ErrUpstreamFailed: a SERVFAIL answer
		down     bool
		failures uint64 // the pool's failure count after the step
		samples  uint64 // the pool's RTT sample count after the step
	}
	type step struct {
		name string
		down bool    // the member's address is down
		fail bool    // its recursor hard-fails
		bad  bool    // the query is one no frontend decodes
		want [3]want // indexed by Protocol
	}
	steps := []step{
		{name: "fresh dial", want: [3]want{
			ProtoDoH: {cost: rtt, samples: 1},
			ProtoDoT: {cost: 3 * rtt, samples: 1},
			ProtoDoQ: {cost: 2 * rtt, samples: 1},
		}},
		{name: "warm session", want: [3]want{
			ProtoDoH: {cost: rtt, samples: 2},
			ProtoDoT: {cost: rtt, samples: 2},
			ProtoDoQ: {cost: rtt, samples: 2},
		}},
		{name: "query no frontend decodes", bad: true, want: [3]want{
			// DoH answers 400: benched, and the answer cost its RTT.
			ProtoDoH: {cost: rtt, err: ErrStatus, down: true, failures: 1, samples: 3},
			// DoT closes the connection on a framing violation.
			ProtoDoT: {err: ErrBadFrame, down: true, failures: 1, samples: 2},
			// DoQ resets the one stream; the session and member are fine.
			ProtoDoQ: {err: ErrStreamReset, samples: 2},
		}},
		{name: "after the bad query", want: [3]want{
			ProtoDoH: {cost: rtt, failures: 1, samples: 4},
			ProtoDoT: {cost: 3 * rtt, failures: 1, samples: 3},
			ProtoDoQ: {cost: rtt, samples: 3},
		}},
		{name: "recursor dead", fail: true, want: [3]want{
			// A 502 is recursor trouble over a healthy transport.
			ProtoDoH: {cost: rtt, err: ErrStatus, failures: 1, samples: 5},
			ProtoDoT: {cost: rtt, err: ErrUpstreamFailed, failures: 1, samples: 4},
			ProtoDoQ: {cost: rtt, err: ErrUpstreamFailed, samples: 4},
		}},
		{name: "envelope dead", down: true, want: [3]want{
			ProtoDoH: {err: simnet.ErrUnreachable, down: true, failures: 2, samples: 5},
			ProtoDoT: {err: ErrConnClosed, down: true, failures: 2, samples: 4},
			ProtoDoQ: {err: ErrConnClosed, down: true, failures: 1, samples: 4},
		}},
		{name: "redial", want: [3]want{
			ProtoDoH: {cost: rtt, failures: 2, samples: 6},
			ProtoDoT: {cost: 3 * rtt, failures: 2, samples: 5},
			// The retained ticket resumes the session with 0-RTT.
			ProtoDoQ: {cost: rtt, failures: 1, samples: 5},
		}},
	}
	for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		t.Run(proto.String(), func(t *testing.T) {
			client, fl, recursor, net, clock := newTestFleet(t, 1, BalanceRoundRobin, proto)
			client.Latency = func(*Upstream) time.Duration { return rtt }
			client.ChargeLatency = true
			for i, s := range steps {
				w := s.want[proto]
				net.SetAddrDown(fl.Addrs[0].Addr(), s.down)
				recursor.fail = s.fail
				q := dnswire.NewQuery(12345, fmt.Sprintf("q%d.test", i), dnswire.TypeA, false)
				if s.bad {
					q = unparseableQuery(12345, "bad.test")
				}
				t0 := clock.Now()
				m, err := client.Exchange(q)
				if got := clock.Now().Sub(t0); got != w.cost {
					t.Errorf("%s: cost %v, want %v", s.name, got, w.cost)
				}
				switch {
				case w.err == ErrUpstreamFailed:
					if err != nil || m.RCode != dnswire.RCodeServFail {
						t.Errorf("%s: got %v (err %v), want a SERVFAIL answer", s.name, m, err)
					}
				case w.err != nil:
					if !errors.Is(err, w.err) {
						t.Errorf("%s: err %v, want %v", s.name, err, w.err)
					}
				case err != nil:
					t.Errorf("%s: %v", s.name, err)
				case m.ID != 12345 || q.ID != 12345:
					t.Errorf("%s: answer ID %d, query ID %d after the exchange, want 12345", s.name, m.ID, q.ID)
				}
				st := client.Pool.Stats()[0]
				if st.Down != w.down || st.Failures != w.failures || st.Queries != w.samples {
					t.Errorf("%s: pool down=%v failures=%d samples=%d, want %v %d %d",
						s.name, st.Down, st.Failures, st.Queries, w.down, w.failures, w.samples)
				}
				if w.samples > 0 && st.RTT != rtt {
					t.Errorf("%s: pool RTT %v, want %v", s.name, st.RTT, rtt)
				}
			}
		})
	}
}

// attemptDialFailures pins the attempts that never reach an envelope: a
// member whose address is down before its first dial, and a member whose
// address serves another protocol. Both bench the member and cost
// nothing.
func attemptDialFailures(t *testing.T) {
	for _, proto := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		for _, tc := range []struct {
			name string
			err  error
			prep func(fl *Fleet, net *simnet.Network)
		}{
			{"address down", simnet.ErrUnreachable, func(fl *Fleet, net *simnet.Network) {
				net.SetAddrDown(fl.Addrs[0].Addr(), true)
			}},
			{"wrong protocol", ErrNotProto, func(fl *Fleet, net *simnet.Network) {
				other := Protocol((int(proto) + 1) % 3)
				ap := frontendAddr(9)
				fl.Add(other, "other", &stubRecursor{ttl: 300}, ap)
				// The pool's first member claims proto at an address that
				// serves the other protocol.
				fl.Pool.ups[0].Addr = ap
				fl.Pool.ups = fl.Pool.ups[:1]
			}},
		} {
			t.Run(fmt.Sprintf("%s/%s", proto, tc.name), func(t *testing.T) {
				client, fl, _, net, clock := newTestFleet(t, 1, BalanceRoundRobin, proto)
				client.Latency = func(*Upstream) time.Duration { return 10 * time.Millisecond }
				client.ChargeLatency = true
				tc.prep(fl, net)
				t0 := clock.Now()
				_, err := client.Query("a.test", dnswire.TypeA, false)
				if !errors.Is(err, tc.err) {
					t.Errorf("err %v, want %v", err, tc.err)
				}
				if got := clock.Now().Sub(t0); got != 0 {
					t.Errorf("a dial failure cost %v, want 0", got)
				}
				if st := client.Pool.Stats()[0]; !st.Down || st.Failures != 1 || st.Queries != 0 {
					t.Errorf("pool %+v, want benched once with no RTT sample", st)
				}
			})
		}
	}
}

// allMembersFailedErrorText pins, byte for byte, the error an
// exchange returns when every member of a mixed fleet fails — a DoH 502,
// a dead DoT address, a DoQ member at a DoH address — first with the
// members healthy, then with all three benched.
func allMembersFailedErrorText(t *testing.T) {
	client, fl, recursor, net, _ := newTestFleet(t, 3, BalanceRoundRobin, ProtoDoH, ProtoDoT, ProtoDoQ)
	client.Latency = func(*Upstream) time.Duration { return 10 * time.Millisecond }
	recursor.fail = true
	net.SetAddrDown(fl.Addrs[1].Addr(), true)
	fl.Pool.ups[2].Addr = fl.Addrs[0]
	for i, want := range []string{
		"transport: all 3 upstreams failed: upstream fe2 (doq): transport: service does not speak the member's protocol: 203.0.113.0:443 is not DoQ",
		"transport: all 3 upstreams failed: upstream fe2 (doq): transport: service does not speak the member's protocol: 203.0.113.0:443 is not DoQ",
	} {
		_, err := client.Query(fmt.Sprintf("q%d.test", i), dnswire.TypeA, false)
		if got := fmt.Sprint(err); got != want {
			t.Errorf("exchange %d error:\n got %q\nwant %q", i, got, want)
		}
	}
}
