package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrStreamReset reports an RFC 9250 per-stream error (DOQ_PROTOCOL_ERROR):
// the offending stream is dead but the session — and every other stream on
// it — stays usable.
var ErrStreamReset = errors.New("transport: DoQ stream reset (DOQ_PROTOCOL_ERROR)")

// doqSession is one client's RFC 9250 session to a DoQ frontend (a QUIC
// connection in the real world). Each Exchange call is one stream: the
// query travels framed on its own stream, the response comes back on the
// same stream, and the stream is done. Stream failures are isolated —
// ErrStreamReset from one Exchange leaves concurrent and subsequent
// streams on the session untouched; only a dead peer address kills the
// session itself.
type doqSession struct {
	fe  *Frontend
	net *simnet.Network
	ap  netip.AddrPort

	mu     sync.Mutex
	closed bool
}

// check verifies the session's peer is still reachable.
func (s *doqSession) check() error {
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

// serve is the server half of one stream: raw is what the client sent on
// it, a 2-byte length prefix and the query (RFC 9250 §4.2). A prefix that
// disagrees with the bytes behind it, a query that does not decode, or a
// non-zero message ID (§4.2.1: streams already demultiplex queries) resets
// the stream. The answer wire aliases st's buffer, so it is valid until
// st is recycled.
func (st *doqStream) serve(f *Frontend, raw []byte, tr *obs.Trace) (wire []byte, stale bool, err error) {
	if len(raw) < 2 || int(binary.BigEndian.Uint16(raw)) != len(raw)-2 {
		return nil, false, fmt.Errorf("%w: length prefix does not match the stream", ErrStreamReset)
	}
	if err := dnswire.UnpackInto(&st.q, raw[2:]); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	if st.q.ID != 0 {
		return nil, false, fmt.Errorf("%w: message ID %d must be 0", ErrStreamReset, st.q.ID)
	}
	ans, err := f.Resolve(&st.q, st.buf[:0], tr)
	if err != nil {
		// Like DoT, DoQ has no status channel: hard upstream failures go
		// on the stream as a synthesized SERVFAIL.
		return servFailWire(&st.q), false, nil
	}
	st.buf = ans.Wire
	return ans.Wire, ans.Stale, nil
}

// Exchange opens one stream for the query and decodes its response into
// the caller-provided message. The query's message ID must be zero
// (RFC 9250 §4.2.1); a non-zero ID or an unparseable query resets this
// stream only. Safe for concurrent use — streams are independent by
// construction. The query is framed into a pooled buffer and served out
// of pooled stream scratch, and the response is decoded into the caller's
// message before the scratch is recycled, so the answer never needs an
// intermediate copy. Server-side spans are recorded onto tr (a nil tr
// traces nothing).
func (s *doqSession) Exchange(q *dnswire.Message, into *dnswire.Message, tr *obs.Trace) (stale bool, err error) {
	if err := s.check(); err != nil {
		return false, err
	}
	// The query travels length-prefixed like DoT (RFC 9250 §4.2); pack
	// and unpack so the wire codec is exercised per stream.
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	raw, err := q.AppendPack(append(*bp, 0, 0))
	*bp = raw
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	binary.BigEndian.PutUint16(raw, uint16(len(raw)-2))
	st := doqStreamPool.Get().(*doqStream)
	defer func() {
		st.buf = dnswire.TrimRecycled(st.buf)
		doqStreamPool.Put(st)
	}()
	wire, stale, err := st.serve(s.fe, raw, tr)
	if err != nil {
		return false, err
	}
	return stale, dnswire.UnpackInto(into, wire)
}
