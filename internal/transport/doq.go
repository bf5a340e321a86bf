package transport

import (
	"errors"
	"fmt"

	"repro/internal/dnswire"
	"repro/internal/obs"
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
type doqSession struct{ framedConn }

// serve is the server half of one DoQ stream: raw is what the client sent
// on it. A frame that does not read, or a non-zero message ID (§4.2.1:
// streams already demultiplex queries), resets the stream. The answer
// wire aliases st.
func (st *frameStream) serve(f *Frontend, raw []byte, tr *obs.Trace) (wire []byte, stale bool, err error) {
	if err := st.read(raw); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	if st.q.ID != 0 {
		return nil, false, fmt.Errorf("%w: message ID %d must be 0", ErrStreamReset, st.q.ID)
	}
	wire, stale = st.answer(f, tr)
	return wire, stale, nil
}

// Exchange opens one stream for the query and decodes its response into
// the caller-provided message. The query's message ID must be zero
// (RFC 9250 §4.2.1); a non-zero ID or an unparseable query resets this
// stream only. Safe for concurrent use — streams are independent by
// construction. The query is framed into a pooled buffer and served out
// of pooled stream scratch, and the response is decoded into the caller's
// message before the scratch is recycled. Server-side spans are recorded
// onto tr (a nil tr traces nothing).
func (s *doqSession) Exchange(q, into *dnswire.Message, tr *obs.Trace) (stale bool, err error) {
	if err := s.check(); err != nil {
		return false, err
	}
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	raw, err := packFrame(bp, q)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrStreamReset, err)
	}
	st := frameStreamPool.Get().(*frameStream)
	defer st.release()
	wire, stale, err := st.serve(s.fe, raw, tr)
	if err != nil {
		return false, err
	}
	return stale, dnswire.UnpackInto(into, wire)
}
