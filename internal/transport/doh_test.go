package transport

import (
	"bytes"
	"testing"

	"repro/internal/dnswire"
)

// dohParam encodes the query as the GET "dns" parameter the way a
// client's DoH session does.
func dohParam(t testing.TB, q *dnswire.Message) []byte {
	t.Helper()
	param, _, err := dnswire.AppendEncodeDoHParam(q, nil)
	if err != nil {
		t.Fatalf("encoding dns parameter: %v", err)
	}
	return param
}

func TestEnvelopeRoundTrip(t *testing.T) {
	fe := &Frontend{Name: "doh0", Proto: ProtoDoH, Handler: &stubRecursor{ttl: 300}}
	sc := new(frameStream)
	status, wire, stale := fe.exchangeDoH(sc, dohParam(t, dnswire.NewQuery(42, "example.com", dnswire.TypeHTTPS, true)), nil)
	if status != StatusOK || stale {
		t.Fatalf("status %d stale %v, want 200 fresh", status, stale)
	}
	if got := &sc.q; got.ID != 42 || len(got.Question) != 1 || got.Question[0].Name != "example.com." ||
		got.Question[0].Type != dnswire.TypeHTTPS || !got.DNSSECOK() {
		t.Errorf("roundtrip mangled query: %+v", got)
	}
	ans := new(dnswire.Message)
	if err := dnswire.UnpackInto(ans, wire); err != nil || ans.ID != 42 || !ans.Response {
		t.Errorf("answer %x: %v, %+v", wire, err, ans)
	}
}

func TestEnvelopeRejections(t *testing.T) {
	fe := &Frontend{Name: "doh0", Proto: ProtoDoH, Handler: &stubRecursor{ttl: 300}}
	for _, tc := range []struct {
		name  string
		param []byte
	}{
		{"missing param", nil},
		{"bad base64", []byte("!!!")},
	} {
		if status, wire, _ := fe.exchangeDoH(new(frameStream), tc.param, nil); status != StatusBadRequest || wire != nil {
			t.Errorf("%s: got status %d with %x, want a bare 400", tc.name, status, wire)
		}
	}
}

// FuzzDoHDecodeRequest drives the server half of a DoH GET exchange with
// raw "dns" parameter bytes. The frontend must answer 400 exactly when
// the parameter does not decode, a decodable reply to the decoded query's
// ID otherwise, and never panic. Pooled scratch that has just served a
// valid query must give the same status and the same reply bytes as
// fresh scratch.
func FuzzDoHDecodeRequest(f *testing.F) {
	valid := dohParam(f, dnswire.NewQuery(1, "site0000.example", dnswire.TypeHTTPS, false))
	twoQuestions := dnswire.NewQuery(3, "a.test", dnswire.TypeA, false)
	twoQuestions.Question = append(twoQuestions.Question, twoQuestions.Question[0])
	f.Add(valid)
	f.Add(dohParam(f, dnswire.NewQuery(2, "a.very.deep.subdomain.of.site0001.example", dnswire.TypeA, true)))
	f.Add(dohParam(f, unparseableQuery(4, "bad.test")))
	f.Add(dohParam(f, twoQuestions)) // answered FORMERR
	f.Add(valid[:len(valid)-1])      // truncated
	f.Add([]byte("AAAB="))           // padded parameter
	f.Add([]byte("!!!"))             // not base64url
	f.Add([]byte("AAAA"))            // too short for a header
	f.Add([]byte{})
	fe := &Frontend{Name: "doh0", Proto: ProtoDoH, Handler: &stubRecursor{ttl: 300}}
	f.Fuzz(func(t *testing.T, param []byte) {
		decoded := new(dnswire.Message)
		_, decodeErr := dnswire.DecodeDoHParamInto(decoded, param, nil)
		want, wantWire, wantStale := fe.exchangeDoH(new(frameStream), param, nil)
		sc := frameStreamPool.Get().(*frameStream)
		defer sc.release()
		if status, _, _ := fe.exchangeDoH(sc, valid, nil); status != StatusOK {
			t.Fatalf("valid query answered %d", status)
		}
		got, gotWire, gotStale := fe.exchangeDoH(sc, param, nil)
		if got != want || gotStale != wantStale || !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("reused scratch: %d %x stale=%v; fresh scratch: %d %x stale=%v",
				got, gotWire, gotStale, want, wantWire, wantStale)
		}
		if (want == StatusBadRequest) != (decodeErr != nil) {
			t.Fatalf("status %d for a parameter whose decode returned %v", want, decodeErr)
		}
		if want != StatusOK {
			return
		}
		m := new(dnswire.Message)
		if err := dnswire.UnpackInto(m, wantWire); err != nil || m.ID != decoded.ID || !m.Response {
			t.Fatalf("reply %x to query ID %d: %v, %+v", wantWire, decoded.ID, err, m)
		}
	})
}
