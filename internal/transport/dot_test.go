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
	"repro/internal/obs"
)

// exchangeVia runs one untraced exchange over a DoT connection or DoQ
// session into a fresh message.
func exchangeVia(e interface {
	Exchange(q, into *dnswire.Message, tr *obs.Trace) (bool, error)
}, q *dnswire.Message) (*dnswire.Message, bool, error) {
	m := new(dnswire.Message)
	stale, err := e.Exchange(q, m, nil)
	if err != nil {
		return nil, false, err
	}
	return m, stale, nil
}

// dotFixture stands up one DoT frontend and dials it directly.
func dotFixture(t *testing.T) (*dotConn, *stubRecursor) {
	t.Helper()
	net, clock := testNet()
	recursor := &stubRecursor{ttl: 300}
	fe := &Frontend{Name: "dot0", Proto: ProtoDoT, Handler: recursor,
		Cache: NewCacheWith(clock, CacheConfig{Shards: 4, ShardCapacity: 64})}
	net.RegisterService(frontendAddr(0), fe)
	c, _ := fe.dial(net, frontendAddr(0), false)
	return c.(*dotConn), recursor
}

// dotFrame wraps a packed DNS message in the RFC 1035 §4.2.2 2-byte
// length prefix DoT uses.
func dotFrame(wire []byte) []byte {
	out := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(out, uint16(len(wire)))
	copy(out[2:], wire)
	return out
}

func packQuery(t testing.TB, id uint16, name string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA, false).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestDoTExchangeDemuxesConcurrentPipelines runs many goroutines
// exchanging distinct queries over one connection at once; every caller
// must get the response bearing its own ID.
func TestDoTExchangeDemuxesConcurrentPipelines(t *testing.T) {
	conn, _ := dotFixture(t)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := uint16(i + 1)
			q := dnswire.NewQuery(id, fmt.Sprintf("c%d.test", i), dnswire.TypeA, false)
			m, _, err := exchangeVia(conn, q)
			if err != nil {
				errs[i] = err
				return
			}
			if m.ID != id {
				errs[i] = fmt.Errorf("got response ID %d, want %d", m.ID, id)
			}
			if len(m.Answer) != 1 {
				errs[i] = fmt.Errorf("answer count %d", len(m.Answer))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("exchange %d: %v", i, err)
		}
	}
}

// TestDoTSameIDExchangesGetTheirOwnAnswers runs 32 goroutines over one
// connection, all with one query ID and each with its own name, 50
// exchanges apiece: every exchange must draw the answer to its own
// question. Matching answers to callers by ID alone cannot tell them
// apart.
func TestDoTSameIDExchangesGetTheirOwnAnswers(t *testing.T) {
	conn, _ := dotFixture(t)
	const workers, rounds = 32, 50
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := dnswire.NewQuery(4242, fmt.Sprintf("same%d.test", i), dnswire.TypeA, false)
			for r := range rounds {
				m, _, err := exchangeVia(conn, q)
				if err == nil && !m.Answers(q) {
					err = fmt.Errorf("round %d: asked %v, answered %v", r, q.Question, m.Question)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestDoTMalformedFrameClosesConnection: a frame the server cannot read
// kills the connection, per RFC 7858's handling of framing violations —
// a message that does not decode, served raw or packed by Exchange.
func TestDoTMalformedFrameClosesConnection(t *testing.T) {
	for _, bad := range []func(c *dotConn) error{
		func(c *dotConn) error {
			_, _, err := c.serve(new(frameStream), dotFrame([]byte{0xde, 0xad}), nil)
			return err
		},
		func(c *dotConn) error {
			_, _, err := exchangeVia(c, unparseableQuery(1, "bad.test"))
			return err
		},
	} {
		conn, _ := dotFixture(t)
		if err := bad(conn); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("malformed frame: %v, want ErrBadFrame", err)
		}
		if _, _, err := exchangeVia(conn, dnswire.NewQuery(1, "after.test", dnswire.TypeA, false)); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("exchange after a framing violation: %v, want ErrConnClosed", err)
		}
	}
}

// TestDoTMidStreamDeathFailsOverToPoolSibling is the satellite edge: a
// connection dies mid-stream (failure injection takes the frontend's
// address down between exchanges) and the client transparently redials
// the next pool member, benching the dead one.
func TestDoTMidStreamDeathFailsOverToPoolSibling(t *testing.T) {
	client, fl, _, net, _ := newTestFleet(t, 2, BalanceRoundRobin, ProtoDoT)

	// Prime a persistent connection to whichever member answers first.
	if _, err := client.Query("pre.test", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, fe := range fl.Frontends {
		if fe.Stats().Served > 0 {
			first = i
		}
	}
	if first < 0 {
		t.Fatal("no frontend served the priming query")
	}

	// Kill that member's address: its persistent connection is now dead
	// mid-stream. The next queries must ride the surviving sibling.
	net.SetAddrDown(fl.Addrs[first].Addr(), true)
	for i := 0; i < 3; i++ {
		if _, err := client.Query(fmt.Sprintf("fo%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatalf("query %d failed despite a healthy DoT sibling: %v", i, err)
		}
	}
	survivor := 1 - first
	if got := fl.Frontends[survivor].Stats().Served; got < 3 {
		t.Errorf("survivor served %d, want ≥ 3", got)
	}
	downs := 0
	for _, st := range client.Pool.Stats() {
		if st.Down {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("%d members benched, want 1 (the dead connection's owner)", downs)
	}

	// Recovery: the address comes back; after the cooldown the member is
	// redialed with a fresh connection.
	net.SetAddrDown(fl.Addrs[first].Addr(), false)
	fl.Pool.clock.Advance(DefaultCooldown + time.Second)
	for i := 0; i < 4; i++ {
		if _, err := client.Query(fmt.Sprintf("back%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	if fl.Frontends[first].Stats().Served == 0 {
		t.Error("recovered member never served after redial")
	}
}

// FuzzDoTFrames cuts the input into whole frames at their length
// prefixes (an incomplete tail is dropped) and serves them on two fresh
// connections, in arrival order on one and in reverse on the other. Each
// frame must draw the same reply bytes on both, so a cached answer that
// depends on which query filled the entry shows, and each reply carries
// its frame's query ID. A frame that does not decode closes its
// connection: it fails with ErrBadFrame and the next exchange with
// ErrConnClosed.
func FuzzDoTFrames(f *testing.F) {
	one := dotFrame(packQuery(f, 7, "site0000.example"))
	var three []byte
	for i, name := range []string{"site0001.example", "crowd.test", "a.very.deep.subdomain.of.site0002.example"} {
		three = append(three, dotFrame(packQuery(f, uint16(i+1), name))...)
	}
	chaos := dnswire.NewQuery(2, "crowd.test", dnswire.TypeA, false)
	chaos.Question[0].Class = 3 // CH: the same name and type in another class
	chaosWire, err := chaos.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Add(three)
	f.Add(append(bytes.Clone(three), one[:5]...))             // a frame cut short at the end
	f.Add(append(bytes.Clone(one), one[0]))                   // half a length prefix at the end
	f.Add(append([]byte{0, 0}, three...))                     // a zero-length frame
	f.Add(append(bytes.Clone(one), 0, 0))                     // ... after a good one
	f.Add(append(bytes.Clone(three), dotFrame(chaosWire)...)) // one name asked in two classes
	f.Fuzz(func(t *testing.T, stream []byte) {
		var frames [][]byte
		for len(stream) >= 2 {
			n := 2 + int(binary.BigEndian.Uint16(stream))
			if len(stream) < n {
				break
			}
			frames, stream = append(frames, stream[:n]), stream[n:]
		}
		inOrder, reversed := serveFrames(t, frames, false), serveFrames(t, frames, true)
		for i := range frames {
			if inOrder[i] != nil && reversed[i] != nil && !bytes.Equal(inOrder[i], reversed[i]) {
				t.Fatalf("frame %d drew %x in arrival order, %x in reverse", i, inOrder[i], reversed[i])
			}
		}
	})
}

// serveFrames serves frames on a fresh DoT connection, last first if
// reverse is set, and returns each frame's reply: nil for the frame that
// closed the connection and those it left unserved.
func serveFrames(t *testing.T, frames [][]byte, reverse bool) [][]byte {
	t.Helper()
	conn, _ := dotFixture(t)
	st := new(frameStream)
	replies := make([][]byte, len(frames))
	for k := range frames {
		i := k
		if reverse {
			i = len(frames) - 1 - k
		}
		wire, _, err := conn.serve(st, frames[i], nil)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || new(frameStream).read(frames[i]) == nil {
				t.Fatalf("frame %d %x failed with %v", i, frames[i], err)
			}
			if _, _, err := exchangeVia(conn, dnswire.NewQuery(1, "after.test", dnswire.TypeA, false)); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("the exchange after a bad frame returned %v, want ErrConnClosed", err)
			}
			return replies
		}
		if len(wire) < 2 || !bytes.Equal(wire[:2], frames[i][2:4]) {
			t.Fatalf("frame %d %x drew %x, not its own ID", i, frames[i], wire)
		}
		replies[i] = bytes.Clone(wire)
	}
	return replies
}
