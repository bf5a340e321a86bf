package transport

import (
	"errors"
	"fmt"

	"repro/internal/dnswire"
)

// The RFC 8484 DNS-over-HTTPS envelope codec: the wire shape of the one
// envelope with a status channel, without an HTTP stack. GET requests
// carry the query as an unpadded base64url "dns" parameter, POST requests
// carry raw wire format, and responses report an HTTP-style status, media
// type, a Cache-Control max-age derived from the answer's minimum TTL,
// and the RFC 8767 serve-stale marker.

// DoHPath is the conventional DoH endpoint path.
const DoHPath = "/dns-query"

// HTTP-ish status codes used by the DoH envelope.
const (
	StatusOK                   = 200
	StatusBadRequest           = 400
	StatusNotFound             = 404
	StatusMethodNotAllowed     = 405
	StatusUnsupportedMediaType = 415
	StatusServFailUpstream     = 502
)

// Errors returned by envelope handling.
var (
	ErrBadEnvelope = errors.New("doh: malformed envelope")
	ErrStatus      = errors.New("doh: non-success status")
)

// DoHRequest is an RFC 8484-style DoH request envelope.
type DoHRequest struct {
	// Method is "GET" or "POST".
	Method string
	// Path is the endpoint path, normally DoHPath.
	Path string
	// DNSParam carries the base64url-encoded query for GET requests. The
	// server only reads it during exchangeDoH, so a client may alias its
	// own recycled scratch here.
	DNSParam []byte
	// ContentType and Body carry the wire-format query for POST requests.
	ContentType string
	Body        []byte
}

// DoHResponse is a DoH response envelope.
type DoHResponse struct {
	Status      int
	ContentType string
	Body        []byte
	// MaxAge is the Cache-Control max-age the frontend derived from the
	// answer's minimum TTL (RFC 8484 §5.1).
	MaxAge uint32
	// Stale marks an RFC 8767 serve-stale answer: the frontend's upstream
	// could not produce a fresh one, so a past-TTL cache entry was served
	// with capped TTLs (the envelope analogue of an HTTP "Warning: 110"
	// header).
	Stale bool
}

// DecodeDoHRequestInto extracts the DNS query from an envelope, reporting
// an HTTP-style status on failure: the query decodes into m with
// dnswire.UnpackInto semantics, and GET parameter decoding works inside
// scratch, which comes back (possibly grown) for the caller to recycle.
func DecodeDoHRequestInto(m *dnswire.Message, req *DoHRequest, scratch []byte) ([]byte, int, error) {
	if req.Path != DoHPath {
		return scratch, StatusNotFound, fmt.Errorf("%w: path %q", ErrBadEnvelope, req.Path)
	}
	switch req.Method {
	case "GET":
		if len(req.DNSParam) == 0 {
			return scratch, StatusBadRequest, fmt.Errorf("%w: missing dns parameter", ErrBadEnvelope)
		}
		scratch, err := dnswire.DecodeDoHParamInto(m, req.DNSParam, scratch)
		if err != nil {
			return scratch, StatusBadRequest, err
		}
		return scratch, StatusOK, nil
	case "POST":
		if req.ContentType != dnswire.MediaTypeDNSMessage {
			return scratch, StatusUnsupportedMediaType,
				fmt.Errorf("%w: content type %q", ErrBadEnvelope, req.ContentType)
		}
		if err := dnswire.UnpackInto(m, req.Body); err != nil {
			return scratch, StatusBadRequest, err
		}
		return scratch, StatusOK, nil
	default:
		return scratch, StatusMethodNotAllowed, fmt.Errorf("%w: method %q", ErrBadEnvelope, req.Method)
	}
}

// DecodeInto unpacks the response body into m with dnswire.UnpackInto
// semantics.
func (r *DoHResponse) DecodeInto(m *dnswire.Message) error {
	if r.Status != StatusOK {
		return fmt.Errorf("%w: %d", ErrStatus, r.Status)
	}
	if r.ContentType != dnswire.MediaTypeDNSMessage {
		return fmt.Errorf("%w: content type %q", ErrBadEnvelope, r.ContentType)
	}
	return dnswire.UnpackInto(m, r.Body)
}
