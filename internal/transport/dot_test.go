package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
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

// readResponse pops the connection's next response frame in server
// emission order.
func readResponse(c *dotConn) (wire []byte, stale bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, false, err
	}
	r, ok := c.popReply()
	if !ok {
		return nil, false, fmt.Errorf("%w: no response pending", ErrConnClosed)
	}
	return r.wire, r.stale, nil
}

func packQuery(t testing.TB, id uint16, name string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA, false).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestDoTSplitLengthPrefixAcrossReads drips one frame into the connection
// byte by byte — the 2-byte length prefix itself split across writes —
// and expects exactly one well-formed response once the frame completes.
func TestDoTSplitLengthPrefixAcrossReads(t *testing.T) {
	conn, _ := dotFixture(t)
	frame := dotFrame(packQuery(t, 7, "split.test"))

	// First byte of the length prefix alone.
	if err := conn.Write(frame[:1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readResponse(conn); err == nil {
		t.Fatal("response emitted from half a length prefix")
	}
	// Second prefix byte plus half the message.
	mid := 2 + len(frame[2:])/2
	if err := conn.Write(frame[1:mid]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readResponse(conn); err == nil {
		t.Fatal("response emitted from a truncated message body")
	}
	// The rest: the frame completes and is answered.
	if err := conn.Write(frame[mid:]); err != nil {
		t.Fatal(err)
	}
	wire, stale, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Error("fresh answer marked stale")
	}
	m := new(dnswire.Message)
	if err := dnswire.UnpackInto(m, wire); err != nil {
		t.Fatal(err)
	}
	if m.ID != 7 || len(m.Answer) != 1 {
		t.Errorf("reassembled answer mangled: id=%d answers=%d", m.ID, len(m.Answer))
	}
}

// TestDoTPipelinedOutOfOrderResponses writes three frames in one segment
// and expects the responses out of order (reverse arrival), each matched
// to its query by ID — the RFC 7858 pipelining contract.
func TestDoTPipelinedOutOfOrderResponses(t *testing.T) {
	conn, recursor := dotFixture(t)
	var burst []byte
	for i := uint16(1); i <= 3; i++ {
		burst = append(burst, dotFrame(packQuery(t, i, fmt.Sprintf("p%d.test", i)))...)
	}
	if err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if recursor.queries != 3 {
		t.Fatalf("pipelined burst reached the recursor %d times, want 3", recursor.queries)
	}
	var order []uint16
	for i := 0; i < 3; i++ {
		wire, _, err := readResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, binary.BigEndian.Uint16(wire))
	}
	if order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Errorf("response order = %v, want out-of-order [3 2 1]", order)
	}
}

// TestDoTExchangeDemuxesConcurrentPipelines runs many goroutines
// pipelining distinct queries over one connection; every caller must get
// the response bearing its own ID even though frames interleave and
// arrive out of order.
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

// TestDoTMalformedFrameClosesConnection: an unparseable message inside a
// well-framed segment kills the connection, per RFC 7858's handling of
// framing violations.
func TestDoTMalformedFrameClosesConnection(t *testing.T) {
	conn, _ := dotFixture(t)
	if err := conn.Write(dotFrame([]byte{0xde, 0xad})); err == nil {
		t.Fatal("malformed frame accepted")
	}
	if err := conn.Write(dotFrame(packQuery(t, 1, "after.test"))); err == nil {
		t.Fatal("connection still usable after a framing violation")
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

// FuzzDoTWrite holds the connection's frame reassembly to the framing
// alone: a byte stream written in one Write and the same stream split at
// fuzzer-chosen offsets (each byte of cuts is the length of the next write;
// the rest goes in one last write) must draw the same reply bytes for each
// query ID — only their order may differ, since each write's batch is
// answered in reverse. A frame that fails to decode must close the
// connection on both sides, so the next Write returns ErrConnClosed.
func FuzzDoTWrite(f *testing.F) {
	one := dotFrame(packQuery(f, 7, "site0000.example"))
	var three []byte
	for i, name := range []string{"site0001.example", "crowd.test", "a.very.deep.subdomain.of.site0002.example"} {
		three = append(three, dotFrame(packQuery(f, uint16(i+1), name))...)
	}
	f.Add(one, []byte{})
	f.Add(three, []byte{})
	f.Add(three, []byte{5, 40, 1, 0, 3})
	f.Add(one, []byte{1})                             // the length prefix split across writes
	f.Add(append([]byte{0, 0}, three...), []byte{1})  // a zero-length frame
	f.Add(append(bytes.Clone(one), 0, 0), []byte{30}) // ... after a good one
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole, _ := dotFixture(t)
		wholeErr := whole.Write(stream)
		split, _ := dotFixture(t)
		var splitErr error
		rest := stream
		for _, c := range cuts {
			n := min(int(c), len(rest))
			if splitErr = split.Write(rest[:n]); splitErr != nil {
				break
			}
			rest = rest[n:]
		}
		if splitErr == nil {
			splitErr = split.Write(rest)
		}
		if (wholeErr == nil) != (splitErr == nil) {
			t.Fatalf("one write: %v; split writes: %v", wholeErr, splitErr)
		}
		if wholeErr != nil {
			for _, side := range []struct {
				what string
				err  error
				c    *dotConn
			}{{"one write", wholeErr, whole}, {"split writes", splitErr, split}} {
				if !errors.Is(side.err, ErrBadFrame) {
					t.Fatalf("%s failed with %v, not a bad frame", side.what, side.err)
				}
				if err := side.c.Write(one); !errors.Is(err, ErrConnClosed) {
					t.Fatalf("%s: the Write after a bad frame returned %v, want ErrConnClosed", side.what, err)
				}
			}
			return
		}
		if got, want := repliesByID(t, split), repliesByID(t, whole); !reflect.DeepEqual(got, want) {
			t.Fatalf("split writes drew replies %v, one write %v", got, want)
		}
	})
}

// repliesByID drains the connection's reply frames into their hex wire
// forms per query ID, sorted, so two connections compare whatever order
// their batches were answered in.
func repliesByID(t *testing.T, c *dotConn) map[uint16][]string {
	t.Helper()
	out := map[uint16][]string{}
	for {
		wire, _, err := readResponse(c)
		if err != nil {
			break
		}
		if len(wire) < 2 {
			t.Fatalf("reply frame of %d bytes", len(wire))
		}
		id := binary.BigEndian.Uint16(wire)
		out[id] = append(out[id], hex.EncodeToString(wire))
	}
	for _, ws := range out {
		slices.Sort(ws)
	}
	return out
}
