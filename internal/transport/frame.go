package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// DoT (RFC 7858 §3.3) and DoQ (RFC 9250 §4.2) carry a query the same
// way: one whole frame, a 2-byte length prefix (RFC 1035 §4.2.2) and the
// message, answered by one frame. This file is the half they share: the
// client packs the frame, the server reads it and answers it. What a bad
// frame costs — the connection, or only the stream — stays with each
// envelope.

// Errors surfaced by the DoT and DoQ session layers.
var (
	// ErrConnClosed reports a dead connection: the peer address went down
	// mid-stream (failure injection) or a framing violation closed it.
	ErrConnClosed = errors.New("transport: connection closed")
	// ErrBadFrame reports a malformed frame; per RFC 7858 the connection
	// is not usable afterwards.
	ErrBadFrame = errors.New("transport: malformed frame")
)

// errFramePrefix is a frame whose length prefix disagrees with the bytes
// behind it.
var errFramePrefix = errors.New("length prefix does not match the frame")

// framedConn is the client's end of a DoT connection or a DoQ session,
// bound to (net, ap) so every exchange re-checks reachability: a
// mid-stream SetAddrDown kills it exactly like a TCP reset. Exchanges on
// one connection share nothing else, so any number run at once.
type framedConn struct {
	fe     *Frontend
	net    *simnet.Network
	ap     netip.AddrPort
	closed atomic.Bool
}

// check verifies the connection is still usable: not closed by a framing
// error and with the server address still reachable.
func (c *framedConn) check() error {
	if c.closed.Load() {
		return ErrConnClosed
	}
	if _, err := c.net.Service(c.ap); err != nil {
		c.closed.Store(true)
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return nil
}

// packFrame packs q behind its length prefix into the pooled wire buffer
// bp and returns the frame.
func packFrame(bp *[]byte, q *dnswire.Message) ([]byte, error) {
	frame, err := q.AppendPack(append(*bp, 0, 0))
	*bp = frame
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	return frame, nil
}

// frameStream is the server-side scratch of one exchange in any of the
// three envelopes: the decoded query, the buffer a DoH "dns" parameter
// decodes into, and the answer wire buffer. An exchange is synchronous —
// query in, answer out — so the scratch goes back to frameStreamPool
// before the session's Exchange returns and the exchange costs no
// allocations.
type frameStream struct {
	q       dnswire.Message
	in, buf []byte
}

var frameStreamPool = sync.Pool{New: func() any { return new(frameStream) }}

// release hands the scratch back to frameStreamPool.
func (st *frameStream) release() {
	st.in, st.buf = dnswire.TrimRecycled(st.in), dnswire.TrimRecycled(st.buf)
	frameStreamPool.Put(st)
}

// read decodes the one frame in raw into st.q: the prefix must match the
// bytes behind it and the message must decode.
func (st *frameStream) read(raw []byte) error {
	if len(raw) < 2 || int(binary.BigEndian.Uint16(raw)) != len(raw)-2 {
		return errFramePrefix
	}
	return dnswire.UnpackInto(&st.q, raw[2:])
}

// answer resolves the query read into st through f. Neither framing has a
// status channel, so a hard upstream failure goes on the wire as a
// synthesized SERVFAIL. The wire aliases st's buffer, so it is valid until
// st is released.
func (st *frameStream) answer(f *Frontend, tr *obs.Trace) (wire []byte, stale bool) {
	ans, err := f.Resolve(&st.q, st.buf[:0], tr)
	if err != nil {
		return servFailWire(&st.q), false
	}
	st.buf = ans.Wire
	return ans.Wire, ans.Stale
}
