package transport

import (
	"testing"

	"repro/internal/dnswire"
)

// dohRequest builds a GET or POST envelope for the query — GET the way a
// client's DoH session does, POST as other clients may.
func dohRequest(t testing.TB, q *dnswire.Message, usePost bool) *DoHRequest {
	t.Helper()
	if usePost {
		wire, err := q.Pack()
		if err != nil {
			t.Fatalf("packing query: %v", err)
		}
		return &DoHRequest{
			Method: "POST", Path: DoHPath,
			ContentType: dnswire.MediaTypeDNSMessage, Body: wire,
		}
	}
	param, _, err := dnswire.AppendEncodeDoHParam(q, nil)
	if err != nil {
		t.Fatalf("encoding dns parameter: %v", err)
	}
	return &DoHRequest{Method: "GET", Path: DoHPath, DNSParam: param}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	q := dnswire.NewQuery(42, "example.com", dnswire.TypeHTTPS, true)
	for _, usePost := range []bool{false, true} {
		got := new(dnswire.Message)
		_, status, err := DecodeDoHRequestInto(got, dohRequest(t, q, usePost), nil)
		if err != nil {
			t.Fatalf("post=%v: decoding: %v (status %d)", usePost, err, status)
		}
		if got.ID != 42 || len(got.Question) != 1 || got.Question[0].Name != "example.com." ||
			got.Question[0].Type != dnswire.TypeHTTPS {
			t.Errorf("post=%v: roundtrip mangled query: %+v", usePost, got)
		}
		if !got.DNSSECOK() {
			t.Errorf("post=%v: DO bit lost in transit", usePost)
		}
	}
}

func TestEnvelopeRejections(t *testing.T) {
	cases := []struct {
		name   string
		req    *DoHRequest
		status int
	}{
		{"wrong path", &DoHRequest{Method: "GET", Path: "/", DNSParam: []byte("AAAA")}, StatusNotFound},
		{"missing param", &DoHRequest{Method: "GET", Path: DoHPath}, StatusBadRequest},
		{"bad base64", &DoHRequest{Method: "GET", Path: DoHPath, DNSParam: []byte("!!!")}, StatusBadRequest},
		{"bad media type", &DoHRequest{Method: "POST", Path: DoHPath, ContentType: "text/plain"}, StatusUnsupportedMediaType},
		{"bad method", &DoHRequest{Method: "PUT", Path: DoHPath}, StatusMethodNotAllowed},
		{"truncated body", &DoHRequest{Method: "POST", Path: DoHPath,
			ContentType: dnswire.MediaTypeDNSMessage, Body: []byte{1, 2}}, StatusBadRequest},
	}
	for _, tc := range cases {
		if _, status, err := DecodeDoHRequestInto(new(dnswire.Message), tc.req, nil); err == nil || status != tc.status {
			t.Errorf("%s: got status %d err %v, want status %d with error", tc.name, status, err, tc.status)
		}
	}
}

// FuzzDoHDecodeRequest drives the envelope decoder the way a DoH frontend
// does — a recycled message and a recycled GET scratch buffer, both
// still holding the previous request — against a fresh decode of the
// same envelope. The decoder must never panic, must report StatusOK
// exactly when it accepts, and must accept the same envelopes with the
// same query whatever the scratch held before.
func FuzzDoHDecodeRequest(f *testing.F) {
	prior := dnswire.NewQuery(7, "dirty.example", dnswire.TypeHTTPS, true)
	for _, usePost := range []bool{false, true} {
		for _, q := range []*dnswire.Message{
			dnswire.NewQuery(1, "site0000.example", dnswire.TypeHTTPS, false),
			dnswire.NewQuery(2, "a.very.deep.subdomain.of.site0001.example", dnswire.TypeA, true),
		} {
			req := dohRequest(f, q, usePost)
			f.Add(usePost, req.Path, req.ContentType, string(req.DNSParam), req.Body)
		}
	}
	f.Add(false, DoHPath, "", "AAAB=", []byte(nil))                           // padded parameter
	f.Add(false, DoHPath, "", "!!!", []byte(nil))                             // not base64url
	f.Add(false, "/", "", "AAAA", []byte(nil))                                // wrong path
	f.Add(true, DoHPath, "text/plain", "", []byte{1, 2})                      // wrong media type
	f.Add(true, DoHPath, dnswire.MediaTypeDNSMessage, "", []byte{0, 1, 0xc0}) // truncated body
	f.Fuzz(func(t *testing.T, usePost bool, path, contentType, param string, body []byte) {
		req := &DoHRequest{Method: "GET", Path: path, DNSParam: []byte(param), ContentType: contentType, Body: body}
		if usePost {
			req.Method = "POST"
		}
		fresh := new(dnswire.Message)
		_, freshStatus, freshErr := DecodeDoHRequestInto(fresh, req, nil)
		if (freshErr == nil) != (freshStatus == StatusOK) {
			t.Fatalf("status %d with err %v", freshStatus, freshErr)
		}

		dirty := new(dnswire.Message)
		scratch, _, err := DecodeDoHRequestInto(dirty, dohRequest(t, prior, false), nil)
		if err != nil {
			t.Fatalf("dirty template failed to decode: %v", err)
		}
		_, dirtyStatus, dirtyErr := DecodeDoHRequestInto(dirty, req, scratch)
		if freshStatus != dirtyStatus || (freshErr == nil) != (dirtyErr == nil) {
			t.Fatalf("fresh/dirty acceptance diverged: fresh=%d %v dirty=%d %v",
				freshStatus, freshErr, dirtyStatus, dirtyErr)
		}
		if freshErr != nil {
			return
		}
		if fresh.ID != dirty.ID || fresh.DNSSECOK() != dirty.DNSSECOK() || len(fresh.Question) != len(dirty.Question) {
			t.Fatalf("decode diverged: fresh=%+v dirty=%+v", fresh, dirty)
		}
		for i := range fresh.Question {
			if fresh.Question[i] != dirty.Question[i] {
				t.Fatalf("question %d diverged: %+v vs %+v", i, fresh.Question[i], dirty.Question[i])
			}
		}
	})
}
