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

// Errors surfaced by the DoT and DoQ session layers.
var (
	// ErrConnClosed reports a dead connection: the peer address went down
	// mid-stream (failure injection) or a framing violation closed it.
	ErrConnClosed = errors.New("transport: connection closed")
	// ErrBadFrame reports a malformed frame; per RFC 7858 the connection
	// is not usable afterwards.
	ErrBadFrame = errors.New("transport: malformed frame")
)

// dotReply is one server→client response frame plus the out-of-band
// stale marker (standing in for the RFC 8914 "Stale Answer" EDE).
type dotReply struct {
	wire  []byte
	stale bool
}

// dotConn is one persistent RFC 7858 connection to a DoT frontend,
// bound to (net, ap) so every operation re-checks reachability — a
// mid-stream SetAddrDown kills it exactly like a TCP reset. The client
// side writes raw 2-byte length-prefixed bytes (RFC 1035 §4.2.2) —
// frames may be split across writes, and one write may carry several
// pipelined frames — and reads back response frames that the server
// emits in reverse arrival order per write (the deterministic stand-in
// for a real resolver answering cheap queries first). Exchange layers
// ID-matching on top so concurrent callers can pipeline queries over one
// connection safely.
type dotConn struct {
	fe  *Frontend
	net *simnet.Network
	ap  netip.AddrPort

	mu      sync.Mutex
	rbuf    []byte              // client→server bytes not yet framed
	roff    int                 // consumed prefix of rbuf (cursor, not re-slice)
	replies []dotReply          // response frames, emitted in order
	rhead   int                 // read prefix of replies (cursor, as roff)
	pending map[uint16]dotReply // responses drained by other callers, demuxed by ID
	traces  map[uint16]*obs.Trace
	closed  bool

	// Recycled scratch, all guarded by mu: decoded query messages for the
	// frame batch, reply wire buffers handed back after Exchange consumes
	// them, and the batch slice itself.
	qmsgs    []*dnswire.Message
	replyBuf [][]byte
	batch    []*dnswire.Message
}

// getQMsg pops a recycled query message (or makes one) for a frame decode.
// Caller holds mu.
func (c *dotConn) getQMsg() *dnswire.Message {
	if n := len(c.qmsgs); n > 0 {
		m := c.qmsgs[n-1]
		c.qmsgs = c.qmsgs[:n-1]
		return m
	}
	return new(dnswire.Message)
}

func (c *dotConn) putQMsg(m *dnswire.Message) {
	if len(c.qmsgs) < 16 {
		c.qmsgs = append(c.qmsgs, m)
	}
}

// getReplyBuf pops a recycled reply wire buffer. Caller holds mu.
func (c *dotConn) getReplyBuf() []byte {
	if n := len(c.replyBuf); n > 0 {
		b := c.replyBuf[n-1]
		c.replyBuf = c.replyBuf[:n-1]
		return b[:0]
	}
	return nil
}

func (c *dotConn) putReplyBuf(b []byte) {
	if b == nil || len(c.replyBuf) >= 16 {
		return
	}
	if b = dnswire.TrimRecycled(b); b == nil {
		return
	}
	c.replyBuf = append(c.replyBuf, b)
}

// popReply takes the next response frame in server emission order. The
// popped slot is cleared so the queue does not pin a reply buffer, and a
// drained queue rewinds onto its backing array. Caller holds mu.
func (c *dotConn) popReply() (r dotReply, ok bool) {
	if c.rhead == len(c.replies) {
		return dotReply{}, false
	}
	r = c.replies[c.rhead]
	c.replies[c.rhead] = dotReply{}
	if c.rhead++; c.rhead == len(c.replies) {
		c.replies, c.rhead = c.replies[:0], 0
	}
	return r, true
}

// check verifies the connection is still usable: not closed by a framing
// error and with the server address still reachable.
func (c *dotConn) check() error {
	if c.closed {
		return ErrConnClosed
	}
	if _, err := c.net.Service(c.ap); err != nil {
		c.closed = true
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}
	return nil
}

// Write delivers raw bytes to the server side of the connection. Partial
// frames accumulate — a length prefix split across two writes is
// reassembled — and every frame completed by this write is resolved, with
// the batch's responses emitted in reverse arrival order (pipelined
// queries complete out of order). A malformed frame closes the
// connection, per RFC 7858's guidance for framing errors.
func (c *dotConn) Write(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	c.rbuf = append(c.rbuf, p...)
	batch := c.batch[:0]
	for {
		buf := c.rbuf[c.roff:]
		if len(buf) < 2 {
			break
		}
		n := int(binary.BigEndian.Uint16(buf))
		if len(buf) < 2+n {
			break
		}
		q := c.getQMsg()
		if err := dnswire.UnpackInto(q, buf[2:2+n]); err != nil {
			c.closed = true
			c.batch = batch[:0]
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		batch = append(batch, q)
		c.roff += 2 + n
	}
	if c.roff == len(c.rbuf) {
		// Fully framed: rewind the reassembly buffer instead of letting
		// the consumed prefix march its capacity away.
		c.rbuf = dnswire.TrimRecycled(c.rbuf)
		c.roff = 0
	}
	for i := len(batch) - 1; i >= 0; i-- {
		q := batch[i]
		// A trace parked for this query ID (Exchange) rides into
		// the frontend so its server-side spans join the dial span.
		var tr *obs.Trace
		if c.traces != nil {
			tr = c.traces[q.ID]
			delete(c.traces, q.ID)
		}
		// The reply is packed into a recycled buffer; Exchange returns it
		// via putReplyBuf once the frame is decoded.
		ans, err := c.fe.Resolve(q, c.getReplyBuf(), tr)
		if err != nil {
			// DoT has no status channel: a hard upstream failure goes on
			// the wire as a synthesized SERVFAIL.
			c.replies = append(c.replies, dotReply{wire: servFailWire(q)})
		} else {
			c.replies = append(c.replies, dotReply{wire: ans.Wire, stale: ans.Stale})
		}
		c.putQMsg(q)
	}
	c.batch = batch[:0]
	return nil
}

// Exchange sends one query over the connection and waits for the
// response carrying its ID, parking any other pipelined responses it
// drains along the way for their owners. Safe for concurrent use: many
// goroutines can pipeline queries over one connection.
//
// The query is framed into a pooled buffer and the response is decoded
// into the caller-provided message, so a steady stream of exchanges over
// a warm connection allocates nothing on this layer. Server-side spans
// are recorded onto tr (a nil tr traces nothing): the trace is parked by
// query ID before the frame is written, so the server side picks it up
// when it resolves the frame — pipelined frames from other callers stay
// untraced.
func (c *dotConn) Exchange(q *dnswire.Message, into *dnswire.Message, tr *obs.Trace) (stale bool, err error) {
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	frame := append(*bp, 0, 0)
	frame, err = q.AppendPack(frame)
	*bp = frame
	if err != nil {
		return false, err
	}
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	if tr != nil {
		c.mu.Lock()
		if c.traces == nil {
			c.traces = map[uint16]*obs.Trace{}
		}
		c.traces[q.ID] = tr
		c.mu.Unlock()
	}
	// Write copies the frame into the reassembly buffer, so the pooled
	// frame can be released as soon as it returns.
	if err := c.Write(frame); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if r, ok := c.pending[q.ID]; ok {
			delete(c.pending, q.ID)
			err := dnswire.UnpackInto(into, r.wire)
			c.putReplyBuf(r.wire)
			return r.stale, err
		}
		if err := c.check(); err != nil {
			return false, err
		}
		r, ok := c.popReply()
		if !ok {
			// The server answers synchronously on Write, so a missing
			// response means it was lost to a connection death.
			return false, fmt.Errorf("%w: response never arrived", ErrConnClosed)
		}
		if len(r.wire) < 2 {
			return false, ErrBadFrame
		}
		id := binary.BigEndian.Uint16(r.wire)
		if id == q.ID {
			err := dnswire.UnpackInto(into, r.wire)
			c.putReplyBuf(r.wire)
			return r.stale, err
		}
		c.pending[id] = r
	}
}
