package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// fuzzSeeds builds the seed corpus both fuzz targets share: packed
// workload-shaped queries (the HTTPS questions the simulated stub
// population issues), their answers, and hand-mangled variants —
// truncated QNAMEs, label lengths pointing past the buffer,
// compression-pointer edge shapes, and labels holding bytes a dotted
// name cannot carry.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	add := func(m *Message) {
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("seed pack: %v", err)
		}
		seeds = append(seeds, wire)
	}
	// Workload-shaped queries: the Zipf head of a Tranco-style universe.
	for i, name := range []string{"site0000.example", "crowd.test", "a.very.deep.subdomain.of.site0001.example"} {
		add(NewQuery(uint16(i+1), name, TypeHTTPS, false))
		add(NewQuery(uint16(i+100), name, TypeA, true))
	}
	// An answered message with an HTTPS record, the serving path's shape.
	resp := NewQuery(7, "site0002.example", TypeHTTPS, false).Reply()
	resp.RecursionAvailable = true
	resp.Answer = append(resp.Answer, RR{
		Name: "site0002.example.", Type: TypeHTTPS, Class: ClassINET, TTL: 300,
		Data: &SVCBData{Priority: 1, Target: "."},
	})
	add(resp)

	base, err := NewQuery(9, "site0003.example", TypeHTTPS, false).Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Truncated QNAME: cut mid-label.
	seeds = append(seeds, base[:len(base)-7])
	// Label length running past the end of the buffer.
	overrun := bytes.Clone(base)
	overrun[12] = 63
	seeds = append(seeds, overrun)
	// A bare header, and a header lying about its question count.
	seeds = append(seeds, base[:12])
	lying := bytes.Clone(base)
	binary.BigEndian.PutUint16(lying[4:6], 0xffff)
	seeds = append(seeds, lying)
	// Degenerate tiny inputs.
	seeds = append(seeds, []byte{}, []byte{0}, bytes.Repeat([]byte{0xc0}, 16))
	for _, bad := range badLabelWires(t) {
		seeds = append(seeds, bad.wire)
	}
	// MX answers kept raw: one whose exchange name is plain labels, and one
	// whose name ends in a compression pointer to the question.
	seeds = append(seeds, rawAnswerWire(TypeMX, mxPlain), rawAnswerWire(TypeMX, mxPointer))
	return seeds
}

// The RDATA of two MX records for the question a.example.: the exchange
// mx.a.example. as plain labels, and as "mx" plus a pointer to the question.
var (
	mxPlain   = []byte{0, 10, 2, 'm', 'x', 1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0}
	mxPointer = []byte{0, 10, 2, 'm', 'x', 0xc0, 0x0c}
)

// rawAnswerWire is a response to the question a.example. of type t with one
// answer of that type and RDATA rd, its owner a pointer to the question: the
// bytes AppendPack makes of the decoded message when rd is self-contained.
func rawAnswerWire(t Type, rd []byte) []byte {
	w := []byte{0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0} // ID 1, QR RD RA, one question, one answer
	w = append(w, 1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0, byte(t>>8), byte(t), 0, 1)
	w = append(w, 0xc0, 0x0c, byte(t>>8), byte(t), 0, 1, 0, 0, 0, 60, byte(len(rd)>>8), byte(len(rd)))
	return append(w, rd...)
}

// badLabelWires are well-formed queries but for one QNAME label byte
// that has no place in a dotted name: CanonicalName would rewrite a
// high-bit byte, trim a leading space, and read a literal dot as a label
// boundary, so a decode that let them through would not re-pack to the
// labels it was given.
func badLabelWires(t testing.TB) []struct {
	what string
	wire []byte
} {
	t.Helper()
	base, err := NewQuery(9, "site0003.example", TypeHTTPS, false).Pack()
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(off int, c byte) []byte {
		w := bytes.Clone(base)
		w[off] = c
		return w
	}
	// base[12] is the first label's length octet, base[13:21] "site0003".
	return []struct {
		what string
		wire []byte
	}{
		{"high-bit byte", mangle(14, 0xe8)},
		{"DEL", mangle(14, 0x7f)},
		{"leading space", mangle(13, ' ')},
		{"control byte", mangle(16, '\t')},
		{"embedded dot", mangle(17, '.')},
	}
}

// FuzzUnpack asserts Unpack never panics and that anything it accepts
// survives a Pack → Unpack round trip of the header and question
// section — the invariant the serving path relies on when it patches
// IDs and question names into reused messages.
func FuzzUnpack(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			// Unpack may surface messages Pack cannot re-encode (e.g.
			// unknown RR shapes); that asymmetry is fine as long as
			// nothing panicked.
			return
		}
		m2, err := Unpack(wire)
		if err != nil {
			t.Fatalf("repack of accepted message failed to unpack: %v", err)
		}
		if m2.ID != m.ID || len(m2.Question) != len(m.Question) {
			t.Fatalf("round trip drifted: ID %d→%d, questions %d→%d",
				m.ID, m2.ID, len(m.Question), len(m2.Question))
		}
		for i := range m.Question {
			if m2.Question[i].Name != m.Question[i].Name || m2.Question[i].Type != m.Question[i].Type {
				t.Fatalf("question %d drifted: %+v → %+v", i, m.Question[i], m2.Question[i])
			}
		}
	})
}

// FuzzUnpackInto drives the pooled decode path with dirty reuse: every
// input is decoded twice, once into a fresh Message and once into a
// Message still holding a fully-populated prior answer (the recycled
// state every pooled decode on the serving path starts from). The two
// results must agree on acceptance and on content — any divergence means
// prior-message state leaked through the reuse machinery. A third decode
// goes into a dirty skeleton — the answered, packed Reply itself, whose
// question and OPT slots are inline — and must agree too, without reaching
// the query the skeleton replied to. Last comes the shrink-then-grow leg:
// both recycled messages decode a bare header — every section cut to zero
// length, its slots still in the backing array — and then the input again.
// Slots are reused from capacity, so this is the decode that finds its own
// RDATA values behind the length; it must still equal the fresh decode,
// encode to the same bytes, and leave no RDATA value reachable from two
// live messages (or from two records of one).
func FuzzUnpackInto(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	// The dirty template: an answered message with populated answer,
	// authority-adjacent EDNS state, SVCB params, a raw TXT record (the
	// RawData slot) and an RRSIG, so every reuse slot (questions, RR
	// sections, RDATA values, the OPT record) holds stale content a leaky
	// decode could surface. The template itself is a seed, so its RRSIG slot
	// is decoded over from the start.
	dirtyTmpl := NewQuery(7, "dirty.example", TypeHTTPS, true).Reply()
	dirtyTmpl.Answer = append(dirtyTmpl.Answer,
		RR{Name: "dirty.example.", Type: TypeHTTPS, Class: ClassINET, TTL: 300,
			Data: &SVCBData{Priority: 1, Target: "svc.dirty.example."}},
		RR{Name: "dirty.example.", Type: TypeTXT, Class: ClassINET, TTL: 60,
			Data: &RawData{Bytes: []byte("\x0bstale-state\x0bleak-canary")}},
		rrsigRR(testRRSIG(bytes.Repeat([]byte{0x5a}, 64))),
	)
	dirtyWire, err := dirtyTmpl.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dirtyWire)
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, freshErr := Unpack(data)
		dirty := new(Message)
		if err := UnpackInto(dirty, dirtyWire); err != nil {
			t.Fatalf("dirty template failed to decode: %v", err)
		}
		// Its RRSIG slot holds a deferred signature nothing has read, as a
		// signer's record would: no decode over it may run the signer.
		slot, signed := deferredRRSIG(bytes.Repeat([]byte{0xef}, 64))
		dirty.Answer[2].Data = slot
		defer func() {
			if n := signed.Load(); n != 0 {
				t.Fatalf("a decode ran the deferred signer of a recycled RRSIG slot %d times", n)
			}
		}()
		dirtyErr := UnpackInto(dirty, data)
		if (freshErr == nil) != (dirtyErr == nil) {
			t.Fatalf("fresh/dirty acceptance diverged: fresh=%v dirty=%v", freshErr, dirtyErr)
		}
		query := NewQuery(7, "dirty.example", TypeHTTPS, true)
		skel := query.Reply()
		skel.Answer = append(skel.Answer, dirtyTmpl.Answer[0].Clone(), dirtyTmpl.Answer[1].Clone())
		if _, err := skel.Pack(); err != nil {
			t.Fatalf("dirty skeleton failed to pack: %v", err)
		}
		if skelErr := UnpackInto(skel, data); (freshErr == nil) != (skelErr == nil) {
			t.Fatalf("fresh/skeleton acceptance diverged: fresh=%v skeleton=%v", freshErr, skelErr)
		}
		if q := query.Question[0]; q.Name != "dirty.example." || q.Type != TypeHTTPS || !query.DNSSECOK() ||
			len(query.Additional) != 1 || len(query.Additional[0].Data.(*OPTData).Options) != 0 {
			t.Fatalf("decoding into a reply reached its query: %+v", query)
		}
		if freshErr != nil {
			return
		}
		assertSameDecode(t, fresh, dirty)
		assertSameDecode(t, fresh, skel)

		freshWire, freshPackErr := fresh.Pack()
		owner := map[RData]string{}
		for _, m := range []struct {
			name string
			*Message
		}{{"fresh", fresh}, {"dirty", dirty}, {"skeleton", skel}} {
			if m.Message != fresh {
				if err := UnpackInto(m.Message, make([]byte, headerLen)); err != nil {
					t.Fatalf("%s: bare header rejected: %v", m.name, err)
				}
				if err := UnpackInto(m.Message, data); err != nil {
					t.Fatalf("%s: accepted input rejected after a shrink: %v", m.name, err)
				}
				assertSameDecode(t, fresh, m.Message)
				if wire, err := m.Pack(); (err == nil) != (freshPackErr == nil) || !bytes.Equal(wire, freshWire) {
					t.Fatalf("%s: re-encodes to %x (%v), the fresh decode to %x (%v)", m.name, wire, err, freshWire, freshPackErr)
				}
			}
			for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
				for _, rr := range sec {
					if prev, shared := owner[rr.Data]; shared {
						t.Fatalf("%s and %s share one %s RDATA value", prev, m.name, rr.Type)
					}
					owner[rr.Data] = m.name
				}
			}
		}
	})
}

// assertSameDecode fails when the two decodes of the same wire input
// differ — header, questions, section shapes, or record content (compared
// via the RData presentation form, which formats values rather than
// backing-array identity).
func assertSameDecode(t *testing.T, fresh, dirty *Message) {
	t.Helper()
	if fresh.ID != dirty.ID || fresh.Response != dirty.Response ||
		fresh.Opcode != dirty.Opcode || fresh.RCode != dirty.RCode ||
		fresh.Truncated != dirty.Truncated {
		t.Fatalf("header diverged: fresh=%+v dirty=%+v", fresh, dirty)
	}
	if len(fresh.Question) != len(dirty.Question) {
		t.Fatalf("question count diverged: %d vs %d", len(fresh.Question), len(dirty.Question))
	}
	for i := range fresh.Question {
		if fresh.Question[i] != dirty.Question[i] {
			t.Fatalf("question %d diverged: %+v vs %+v", i, fresh.Question[i], dirty.Question[i])
		}
	}
	sections := []struct {
		name         string
		fresh, dirty []RR
	}{
		{"answer", fresh.Answer, dirty.Answer},
		{"authority", fresh.Authority, dirty.Authority},
		{"additional", fresh.Additional, dirty.Additional},
	}
	for _, s := range sections {
		if len(s.fresh) != len(s.dirty) {
			t.Fatalf("%s count diverged: %d vs %d", s.name, len(s.fresh), len(s.dirty))
		}
		for i := range s.fresh {
			a, b := s.fresh[i], s.dirty[i]
			if a.Name != b.Name || a.Type != b.Type || a.Class != b.Class || a.TTL != b.TTL {
				t.Fatalf("%s[%d] RR diverged: %+v vs %+v", s.name, i, a, b)
			}
			if (a.Data == nil) != (b.Data == nil) {
				t.Fatalf("%s[%d] RDATA presence diverged", s.name, i)
			}
			if a.Data != nil && a.Data.String() != b.Data.String() {
				t.Fatalf("%s[%d] RDATA diverged: %q vs %q", s.name, i, a.Data.String(), b.Data.String())
			}
		}
	}
}

// TestFuzzSeedsParse keeps the well-formed half of the corpus honest:
// the packed query seeds must stay parseable as the wire format
// evolves, so the fuzzers always start from live coverage.
func TestFuzzSeedsParse(t *testing.T) {
	parsed := 0
	for _, s := range fuzzSeeds(t) {
		if m, err := Unpack(s); err == nil && len(m.Question) == 1 {
			parsed++
		}
	}
	if parsed < 7 {
		t.Fatalf("only %d seeds parse cleanly, want ≥ 7 (queries + answer)", parsed)
	}
}

// TestNameDecodeRejectsUnrepresentableLabelBytes pins where hostile label
// bytes are decided: at decode, once, with a typed error — by Unpack, by
// UnpackInto over a dirty recycled message, and in RDATA names as in the
// question — so every name that is accepted re-packs to itself.
func TestNameDecodeRejectsUnrepresentableLabelBytes(t *testing.T) {
	dirtyWire, err := NewQuery(7, "dirty.example", TypeHTTPS, true).Reply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range badLabelWires(t) {
		if _, err := Unpack(bad.wire); !errors.Is(err, ErrBadLabelByte) {
			t.Errorf("%s: Unpack error = %v, want ErrBadLabelByte", bad.what, err)
		}
		m := new(Message) // dirty reuse, as a pooled decode finds it
		if err := UnpackInto(m, dirtyWire); err != nil {
			t.Fatal(err)
		}
		if err := UnpackInto(m, bad.wire); !errors.Is(err, ErrBadLabelByte) {
			t.Errorf("%s: UnpackInto over a dirty message error = %v, want ErrBadLabelByte", bad.what, err)
		}
	}
	// The same byte inside an RDATA name (an NS host) is refused too.
	resp := NewQuery(3, "site0004.example", TypeNS, false).Reply()
	resp.Answer = append(resp.Answer, RR{
		Name: "site0004.example.", Type: TypeNS, Class: ClassINET, TTL: 60,
		Data: &NSData{Host: "ns1.elsewhere.test."},
	})
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(wire, []byte("elsewhere"))
	if at < 0 {
		t.Fatal("NS host not found uncompressed in the packed answer")
	}
	wire[at+2] = 0x80
	if _, err := Unpack(wire); !errors.Is(err, ErrBadLabelByte) {
		t.Errorf("RDATA name: Unpack error = %v, want ErrBadLabelByte", err)
	}
	// What stays accepted is every printable byte but the dot, folded to
	// lower case, and it is a fixed point of CanonicalName.
	var label []byte
	for c := byte('!'); c < 0x7f; c++ {
		if c != '.' {
			label = append(label, c)
		}
	}
	first, second := label[:63], label[63:]           // 93 bytes: two labels
	wire = []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0} // header: ID 1, one question
	wire = append(append(wire, byte(len(first))), first...)
	wire = append(append(wire, byte(len(second))), second...)
	wire = append(wire, 0, 0, byte(TypeA), 0, byte(ClassINET))
	m, err := Unpack(wire)
	if err != nil {
		t.Fatalf("printable labels rejected: %v", err)
	}
	name := m.Question[0].Name
	if want := strings.ToLower(string(first) + "." + string(second) + "."); name != want {
		t.Fatalf("decoded name = %q, want %q", name, want)
	}
	if CanonicalName(name) != name || !isCanonical(name) {
		t.Fatalf("decoded name %q is not canonical", name)
	}
}
