package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrStreamReset reports an RFC 9250 per-stream error (DOQ_PROTOCOL_ERROR):
// the offending stream is dead but the session — and every other stream on
// it — stays usable.
var ErrStreamReset = errors.New("transport: DoQ stream reset (DOQ_PROTOCOL_ERROR)")

// DoQServer is the RFC 9250 envelope over a Frontend: clients open a
// session (a QUIC connection in the real world) to its simnet addr:port
// and carry exactly one query and one response per stream. The DNS
// message ID on a DoQ stream MUST be zero (RFC 9250 §4.2.1) — streams
// already demultiplex queries, so the ID field is redundant and a
// non-zero one resets the stream.
type DoQServer struct {
	Frontend

	sessions atomic.Uint64
	resumed  atomic.Uint64
	streams  atomic.Uint64
	resets   atomic.Uint64
}

// NewDoQServer builds a DoQ frontend over the handler.
func NewDoQServer(name string, handler simnet.DNSHandler, cache *Cache, cooldown time.Duration) *DoQServer {
	return &DoQServer{Frontend: Frontend{
		Name: name, Proto: ProtoDoQ, Handler: handler,
		Cache: cache, FailureCooldown: cooldown,
	}}
}

// DoQSessionStats reports a frontend's session-layer traffic: how many
// sessions were established (and how many of those resumed with 0-RTT),
// how many streams carried queries, and how many streams were reset.
type DoQSessionStats struct {
	Sessions uint64
	Resumed  uint64
	Streams  uint64
	Resets   uint64
}

// SessionStats returns the session-layer counters.
func (s *DoQServer) SessionStats() DoQSessionStats {
	return DoQSessionStats{
		Sessions: s.sessions.Load(),
		Resumed:  s.resumed.Load(),
		Streams:  s.streams.Load(),
		Resets:   s.resets.Load(),
	}
}

// DialDoQ establishes a session bound to (n, ap). resumed marks a 0-RTT
// session resumption — the client holds a ticket from an earlier session
// to this frontend and pays no handshake round-trip; the latency
// difference is the client's to charge.
func (s *DoQServer) DialDoQ(n *simnet.Network, ap netip.AddrPort, resumed bool) *DoQSession {
	s.sessions.Add(1)
	if resumed {
		s.resumed.Add(1)
	}
	return &DoQSession{srv: s, net: n, ap: ap}
}

// dial establishes a client's session: one setup round-trip for the QUIC
// handshake, none for a 0-RTT resumption.
func (s *DoQServer) dial(n *simnet.Network, ap netip.AddrPort, resumed bool) (session, int) {
	if resumed {
		return s.DialDoQ(n, ap, true), 0
	}
	return s.DialDoQ(n, ap, false), 1
}

// DoQSession is one client session. Each Exchange call is one stream:
// the query travels framed on its own stream, the response comes back on
// the same stream, and the stream is done. Stream failures are isolated —
// ErrStreamReset from one Exchange leaves concurrent and subsequent
// streams on the session untouched; only a dead peer address kills the
// session itself.
type DoQSession struct {
	srv *DoQServer
	net *simnet.Network
	ap  netip.AddrPort

	mu     sync.Mutex
	closed bool
}

// check verifies the session's peer is still reachable.
func (s *DoQSession) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrConnClosed
	}
	if _, err := s.net.Service(s.ap); err != nil {
		s.closed = true
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return nil
}

// doqStream is the per-stream server-side scratch: the decoded query
// message and the answer wire buffer. A stream is fully synchronous —
// query in, answer out, stream done — so the scratch is released before
// Exchange returns and the whole stream costs no allocations.
type doqStream struct {
	q   dnswire.Message
	buf []byte
}

var doqStreamPool = sync.Pool{New: func() any { return new(doqStream) }}

// Exchange opens one stream for the query and decodes its response into
// the caller-provided message. The query's message ID must be zero
// (RFC 9250 §4.2.1); a non-zero ID or an unparseable frame resets this
// stream only. Safe for concurrent use — streams are independent by
// construction. The query is framed into a pooled buffer and parsed into
// pooled server scratch, and the response is decoded into the caller's
// message before the scratch is recycled, so the answer never needs an
// intermediate copy. Server-side spans are recorded onto tr (a nil tr
// traces nothing).
func (s *DoQSession) Exchange(q *dnswire.Message, into *dnswire.Message, tr *obs.Trace) (stale bool, err error) {
	if err := s.check(); err != nil {
		return false, err
	}
	s.srv.streams.Add(1)
	if q.ID != 0 {
		s.srv.resets.Add(1)
		return false, fmt.Errorf("%w: message ID %d must be 0", ErrStreamReset, q.ID)
	}
	// The frame travels length-prefixed like DoT (RFC 9250 §4.2); pack
	// and unpack so the wire codec is exercised per stream.
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	frame := append(*bp, 0, 0)
	frame, err = q.AppendPack(frame)
	*bp = frame
	if err != nil {
		s.srv.resets.Add(1)
		return false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	st := doqStreamPool.Get().(*doqStream)
	defer func() {
		st.buf = trimRecycledBuf(st.buf)
		doqStreamPool.Put(st)
	}()
	if err := dnswire.UnpackInto(&st.q, frame[2:]); err != nil {
		s.srv.resets.Add(1)
		return false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	ans, rerr := s.srv.Resolve(&st.q, st.buf[:0], tr)
	if rerr != nil {
		// Like DoT, DoQ has no status channel: hard upstream failures go
		// on the stream as a synthesized SERVFAIL.
		return false, dnswire.UnpackInto(into, servFailWire(&st.q))
	}
	st.buf = ans.Wire
	return ans.Stale, dnswire.UnpackInto(into, ans.Wire)
}
