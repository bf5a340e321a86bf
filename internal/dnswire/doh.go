package dnswire

import (
	"encoding/base64"
	"fmt"
)

// AppendEncodeDoHParam packs the message and encodes it with unpadded
// base64url, the form carried in the RFC 8484 GET "dns" query parameter.
// The message packs into scratch and the base64url form is built in the
// same buffer, so a recycled scratch makes the encode allocation-free: the
// returned parameter aliases the returned (possibly grown) scratch and is
// valid until the caller reuses it.
func AppendEncodeDoHParam(m *Message, scratch []byte) (param, buf []byte, err error) {
	wire, err := m.AppendPack(scratch[:0])
	if err != nil {
		return nil, scratch, fmt.Errorf("dnswire: encoding DoH param: %w", err)
	}
	wlen := len(wire)
	buf = append(wire, make([]byte, base64.RawURLEncoding.EncodedLen(wlen))...)
	base64.RawURLEncoding.Encode(buf[wlen:], buf[:wlen])
	return buf[wlen:], buf, nil
}

// DecodeDoHParamInto reverses AppendEncodeDoHParam: it decodes an
// unpadded (padded forms are tolerated, as servers must accept both)
// base64url parameter and unpacks the wire-format message. s is only read;
// the wire decodes into scratch and the message into m with UnpackInto
// semantics. The (possibly grown) scratch comes back for the caller to
// recycle.
func DecodeDoHParamInto(m *Message, s, scratch []byte) ([]byte, error) {
	// RawURLEncoding's DecodedLen is an upper bound for the padded form too.
	buf := append(scratch[:0], make([]byte, base64.RawURLEncoding.DecodedLen(len(s)))...)
	n, err := base64.RawURLEncoding.Decode(buf, s)
	if err != nil {
		// Tolerate padded input from sloppy clients.
		n, err = base64.URLEncoding.Decode(buf, s)
		if err != nil {
			return buf, fmt.Errorf("dnswire: decoding DoH param: %w", err)
		}
	}
	return buf, UnpackInto(m, buf[:n])
}
