package transport

import (
	"fmt"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// dotConn is one persistent RFC 7858 connection to a DoT frontend. Each
// Exchange writes one whole frame and reads back the one frame that
// answers it, so concurrent exchanges never see each other's answers. A
// frame the server cannot read closes the connection (RFC 7858 §3.3).
type dotConn struct{ framedConn }

// serve is the server half of one exchange: the frontend reads the frame
// and answers it. A bad frame closes the connection, so every later
// exchange on it returns ErrConnClosed. The answer wire aliases st.
func (c *dotConn) serve(st *frameStream, frame []byte, tr *obs.Trace) (wire []byte, stale bool, err error) {
	if err := c.check(); err != nil {
		return nil, false, err
	}
	if err := st.read(frame); err != nil {
		c.closed.Store(true)
		return nil, false, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	wire, stale = st.answer(c.fe, tr)
	return wire, stale, nil
}

// Exchange frames the query into a pooled buffer, serves it out of pooled
// scratch and decodes the answer into the caller's message before the
// scratch is recycled. Safe for concurrent use. Server-side spans are
// recorded onto tr (a nil tr traces nothing).
func (c *dotConn) Exchange(q, into *dnswire.Message, tr *obs.Trace) (stale bool, err error) {
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	frame, err := packFrame(bp, q)
	if err != nil {
		return false, err
	}
	st := frameStreamPool.Get().(*frameStream)
	defer st.release()
	wire, stale, err := c.serve(st, frame, tr)
	if err != nil {
		return false, err
	}
	return stale, dnswire.UnpackInto(into, wire)
}
