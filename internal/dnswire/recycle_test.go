package dnswire

import (
	"net/netip"
	"strings"
	"testing"
	"unsafe"
)

// TestTrimRecycledCeiling pins the recycling ceiling: buffers at or under
// maxRecycledBuf keep their backing array (truncated to zero length),
// anything over is dropped for the GC. The ceiling is what stops one
// jumbo message from pinning its array in a pool for a whole campaign;
// every pooled envelope scratch of the serving layer (DoH request and
// response bodies, DoT and DoQ frame buffers) runs through
// the same helper.
func TestTrimRecycledCeiling(t *testing.T) {
	under := make([]byte, 100, maxRecycledBuf)
	if got := TrimRecycled(under); len(got) != 0 || cap(got) != maxRecycledBuf {
		t.Fatalf("under-ceiling buffer: got len=%d cap=%d, want len=0 cap=%d",
			len(got), cap(got), maxRecycledBuf)
	}
	over := make([]byte, 0, maxRecycledBuf+1)
	if got := TrimRecycled(over); got != nil {
		t.Fatalf("over-ceiling buffer kept: cap=%d, want nil", cap(got))
	}
	if got := TrimRecycled(nil); got != nil {
		t.Fatalf("TrimRecycled(nil) = %v, want nil", got)
	}
}

// TestPutWireBufCeiling drives the same ceiling through the public pool
// API: an oversized buffer handed to PutWireBuf must not come back out of
// GetWireBuf with its jumbo backing array intact.
func TestPutWireBufCeiling(t *testing.T) {
	big := make([]byte, maxRecycledBuf*2)
	PutWireBuf(&big)
	// The pool may or may not hand back the same pointer; what matters is
	// that no buffer it serves exceeds the ceiling.
	for i := 0; i < 8; i++ {
		bp := GetWireBuf()
		if cap(*bp) > maxRecycledBuf {
			t.Fatalf("pool served a buffer with cap %d over ceiling %d", cap(*bp), maxRecycledBuf)
		}
		PutWireBuf(bp)
	}
	PutWireBuf(nil) // must not panic
}

// TestDecodeScratchNameCeiling pins the decode scratch's name-memo
// ceiling: a scratch whose memo grew past maxRecycledNames drops the
// backing array on the way into the pool, and the retained memo never
// pins name strings from a past message.
func TestDecodeScratchNameCeiling(t *testing.T) {
	sc := &decodeScratch{names: make([]string, maxRecycledNames+1)}
	putDecScratch(sc)
	if sc.names != nil {
		t.Fatalf("over-ceiling name memo kept: cap=%d, want nil", cap(sc.names))
	}
	sc2 := &decodeScratch{names: append(make([]string, 0, 8), "kept.example.")}
	putDecScratch(sc2)
	if len(sc2.names) != 0 || cap(sc2.names) != 8 {
		t.Fatalf("under-ceiling memo: got len=%d cap=%d, want len=0 cap=8", len(sc2.names), cap(sc2.names))
	}
	// The string header must have been zeroed, not just truncated.
	if s := sc2.names[:1][0]; s != "" {
		t.Fatalf("recycled memo still pins %q", s)
	}
}

// A decode into a message whose question slot holds the query's own name
// hands back that very string, not an equal copy: for the question and for
// every owner spelled the same way. It holds in a fresh message, in one
// whose slots last held another answer's names, and in one whose slots
// hold equal strings an earlier decode of the same answer made.
func TestDecodeSharesTheQueryName(t *testing.T) {
	const spelled = "www.share.example."
	answer := func(name string) []byte {
		m := NewQuery(1, name, TypeA, true).Reply()
		for _, a := range []string{"192.0.2.1", "192.0.2.2"} {
			m.Answer = append(m.Answer, RR{Name: name, Type: TypeA, Class: ClassINET, TTL: 300,
				Data: &AData{Addr: netip.MustParseAddr(a)}})
		}
		m.Answer = append(m.Answer, rrsigRR(testRRSIG(make([]byte, 64))))
		m.Answer[len(m.Answer)-1].Name = name
		m.Authority = append(m.Authority, RR{Name: "share.example.", Type: TypeNS, Class: ClassINET,
			TTL: 300, Data: &NSData{Host: "ns1.share.example."}})
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	wire := answer(spelled)
	for _, before := range []struct {
		name string
		wire []byte
	}{{"fresh", nil}, {"after another answer", answer("other.share.example.")}, {"after the same answer", wire}} {
		m := new(Message)
		if before.wire != nil {
			if err := UnpackInto(m, before.wire); err != nil {
				t.Fatal(err)
			}
		}
		qname := strings.Clone(spelled)
		m.Question = append(m.Question[:0], Question{Name: qname, Type: TypeA, Class: ClassINET})
		if err := UnpackInto(m, wire); err != nil {
			t.Fatal(err)
		}
		if unsafe.StringData(m.Question[0].Name) != unsafe.StringData(qname) {
			t.Errorf("%s: the question is a copy of the query's name", before.name)
		}
		owners := 0
		for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
			for i, rr := range sec {
				if rr.Name != spelled {
					continue
				}
				owners++
				if unsafe.StringData(rr.Name) != unsafe.StringData(qname) {
					t.Errorf("%s: owner %d (%s) is a copy of the query's name", before.name, i, rr.Type)
				}
			}
		}
		if owners != 3 {
			t.Errorf("%s: %d owners spelled %s, want 3", before.name, owners, spelled)
		}
	}
}
