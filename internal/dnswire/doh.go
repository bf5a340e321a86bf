package dnswire

import (
	"encoding/base64"
	"fmt"
)

// MediaTypeDNSMessage is the RFC 8484 media type for DNS wire format
// carried in DoH request and response bodies.
const MediaTypeDNSMessage = "application/dns-message"

// AppendEncodeDoHParam packs the message and encodes it with unpadded
// base64url, the form carried in the RFC 8484 GET "dns" query parameter.
// The message packs into scratch and the base64url form is built in the
// same buffer, so the only allocation is the returned parameter string
// itself. The (possibly grown) scratch comes back for the caller to
// recycle.
func AppendEncodeDoHParam(m *Message, scratch []byte) (string, []byte, error) {
	wire, err := m.AppendPack(scratch[:0])
	if err != nil {
		return "", scratch, fmt.Errorf("dnswire: encoding DoH param: %w", err)
	}
	wlen := len(wire)
	buf := append(wire, make([]byte, base64.RawURLEncoding.EncodedLen(wlen))...)
	base64.RawURLEncoding.Encode(buf[wlen:], buf[:wlen])
	return string(buf[wlen:]), buf, nil
}

// DecodeDoHParamInto reverses AppendEncodeDoHParam: it decodes an
// unpadded (padded forms are tolerated, as servers must accept both)
// base64url string and unpacks the wire-format message. The parameter's
// raw bytes and the decoded wire share scratch, and the message decodes
// into m with UnpackInto semantics. The (possibly grown) scratch comes
// back for the caller to recycle.
func DecodeDoHParamInto(m *Message, s string, scratch []byte) ([]byte, error) {
	// Lay the buffer out as [param bytes][decoded wire]; RawURLEncoding's
	// DecodedLen is an upper bound for the padded form too.
	buf := append(scratch[:0], s...)
	buf = append(buf, make([]byte, base64.RawURLEncoding.DecodedLen(len(s)))...)
	n, err := base64.RawURLEncoding.Decode(buf[len(s):], buf[:len(s)])
	if err != nil {
		// Tolerate padded input from sloppy clients.
		n, err = base64.URLEncoding.Decode(buf[len(s):], buf[:len(s)])
		if err != nil {
			return buf, fmt.Errorf("dnswire: decoding DoH param: %w", err)
		}
	}
	if err := UnpackInto(m, buf[len(s):len(s)+n]); err != nil {
		return buf, err
	}
	return buf, nil
}
