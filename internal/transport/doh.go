package transport

import (
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// The RFC 8484 DNS-over-HTTPS envelope, without an HTTP stack: a GET
// carries the query as an unpadded base64url "dns" parameter, and the
// response is an HTTP-style status, the answer wire, and the RFC 8767
// serve-stale marker.

// HTTP-ish status codes of the DoH envelope.
const (
	StatusOK               = 200
	StatusBadRequest       = 400
	StatusServFailUpstream = 502
)

// Errors returned by envelope handling.
var (
	ErrBadEnvelope = errors.New("doh: malformed envelope")
	ErrStatus      = errors.New("doh: non-success status")
)

// exchangeDoH is the server half of one GET exchange: param is the
// request's "dns" parameter. A parameter that does not decode is a 400,
// and a hard upstream failure with nothing stale is a 502 — DoH is the one
// envelope with a status channel distinct from the DNS RCode. The
// parameter decodes into st's in buffer and the answer wire aliases its
// answer buffer, so it is valid until st is released. Server-side spans
// are recorded onto tr (a nil tr traces nothing).
func (f *Frontend) exchangeDoH(st *frameStream, param []byte, tr *obs.Trace) (status int, wire []byte, stale bool) {
	in, err := dnswire.DecodeDoHParamInto(&st.q, param, st.in)
	st.in = in
	if err != nil {
		return StatusBadRequest, nil, false
	}
	ans, err := f.Resolve(&st.q, st.buf[:0], tr)
	if err != nil {
		return StatusServFailUpstream, nil, false
	}
	st.buf = ans.Wire
	return StatusOK, ans.Wire, ans.Stale
}

// dohSession is a client's RFC 8484 GET session: each Exchange is one
// envelope, after the reachability check a DoT connection makes too. DoH
// keeps no connection state here, so a dial costs no setup round-trip.
type dohSession struct {
	fe  *Frontend
	net *simnet.Network
	ap  netip.AddrPort
}

// answeredError is a DoH exchange the frontend answered without a usable
// answer — a non-200 status or an undecodable body. Unlike a dead
// session's error, it cost a round-trip.
type answeredError struct {
	error
	status int
}

func (e *answeredError) Unwrap() error { return e.error }

// Exchange encodes the query's GET parameter into a pooled buffer, serves
// it out of the pooled scratch DoT and DoQ serve from too, and decodes the
// answer into the caller's message before the scratch is recycled. The
// reachability check stays its own: a dead DoH address reports the
// network's error, not a closed connection, for there is none to close.
func (s *dohSession) Exchange(q, into *dnswire.Message, tr *obs.Trace) (bool, error) {
	if _, err := s.net.Service(s.ap); err != nil {
		return false, err
	}
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	param, buf, err := dnswire.AppendEncodeDoHParam(q, *bp)
	*bp = buf
	if err != nil {
		return false, err
	}
	st := frameStreamPool.Get().(*frameStream)
	defer st.release()
	status, wire, stale := s.fe.exchangeDoH(st, param, tr)
	if status != StatusOK {
		return false, &answeredError{fmt.Errorf("%w: %d", ErrStatus, status), status}
	}
	if err := dnswire.UnpackInto(into, wire); err != nil {
		return false, &answeredError{err, status}
	}
	return stale, nil
}
