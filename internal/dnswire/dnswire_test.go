package dnswire

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/svcb"
	"repro/internal/testrace"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{" www.a.com ", "www.a.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNameHelpers(t *testing.T) {
	if got := ParentName("www.example.com."); got != "example.com." {
		t.Errorf("ParentName = %q", got)
	}
	if got := ParentName("com."); got != "." {
		t.Errorf("ParentName(com.) = %q", got)
	}
	if !IsSubdomain("a.b.com", "b.com") || !IsSubdomain("b.com", "b.com") || !IsSubdomain("x.y", ".") {
		t.Error("IsSubdomain false negatives")
	}
	if IsSubdomain("ab.com", "b.com") {
		t.Error("IsSubdomain matched partial label")
	}
	if got := ApexOf("a.b.example.com."); got != "example.com." {
		t.Errorf("ApexOf = %q", got)
	}
	if got := CountLabels("www.example.com."); got != 3 {
		t.Errorf("CountLabels = %d", got)
	}
	if got := CountLabels("."); got != 0 {
		t.Errorf("CountLabels(.) = %d", got)
	}
}

// TestNameFastPathsMatchReference holds the single-pass CanonicalName, the
// suffix-slicing ApexOf and the dot-counting CountLabels to the definitions
// they replaced, on the inputs where a shortcut could differ: case,
// surrounding and inner whitespace, missing and doubled dots, non-ASCII and
// invalid UTF-8.
func TestNameFastPathsMatchReference(t *testing.T) {
	refCanonical := func(s string) string {
		s = strings.ToLower(strings.TrimSpace(s))
		if s == "" || s == "." {
			return "."
		}
		if !strings.HasSuffix(s, ".") {
			s += "."
		}
		return s
	}
	refApex := func(name string) string {
		labels := SplitLabels(name)
		if len(labels) < 2 {
			return refCanonical(name)
		}
		return strings.Join(labels[len(labels)-2:], ".") + "."
	}
	for _, in := range []string{
		"", ".", "..", "com", "com.", "example.com", "example.com.", "a.b.example.com.",
		"WWW.Example.COM.", " www.a.com. ", "www.a.com.\n", "\twww.a.com", "a b.com.", "a..com.", ".com.",
		"bücher.example.", "BÜCHER.example.", "\xff\xfe.example.", "x\u00a0.example.", "\u0085a.example.",
		"\x7f.example.", "a.b.c.d.e.f.g.", "www.", "www..",
	} {
		if got, want := CanonicalName(in), refCanonical(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, reference %q", in, got, want)
		}
		if got, want := ApexOf(in), refApex(in); got != want {
			t.Errorf("ApexOf(%q) = %q, reference %q", in, got, want)
		}
		if got, want := CountLabels(in), len(SplitLabels(in)); got != want {
			t.Errorf("CountLabels(%q) = %d, reference %d", in, got, want)
		}
	}
}

func TestValidateName(t *testing.T) {
	if err := validateCanonical("example.com."); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if err := validateCanonical(strings.Repeat("a", 64) + ".com."); err == nil {
		t.Error("overlong label accepted")
	}
	long := strings.Repeat("aaaaaaaaaa.", 26) // 286 bytes
	if err := validateCanonical(long); err == nil {
		t.Error("overlong name accepted")
	}
	if _, err := packName(nil, long, nil); err == nil {
		t.Error("packName accepted an overlong name")
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	names := []string{".", "com.", "example.com.", "a.very.deep.sub.domain.example.org."}
	for _, name := range names {
		wire, err := packName(nil, name, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", name, err)
		}
		got, off, err := appendName(nil, wire, 0)
		if err != nil {
			t.Fatalf("appendName(%q): %v", name, err)
		}
		if string(got) != name || off != len(wire) {
			t.Errorf("round trip %q = %q (off %d of %d)", name, got, off, len(wire))
		}
	}
}

func TestNameCompression(t *testing.T) {
	cmap := getCmap(0)
	defer putCmap(cmap)
	buf, err := packName(nil, "www.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	uncompressedLen := len(buf)
	buf, err = packName(buf, "mail.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should use a pointer: "mail" label (5 bytes) + 2-byte ptr.
	if len(buf)-uncompressedLen != 7 {
		t.Errorf("compression not applied: second name used %d bytes", len(buf)-uncompressedLen)
	}
	name, _, err := appendName(nil, buf, uncompressedLen)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "mail.example.com." {
		t.Errorf("decompressed = %q", name)
	}
}

func TestUnpackNameLoopGuard(t *testing.T) {
	// Pointer to self: 0xc000 at offset 0 would point to itself; our decoder
	// requires pointers to point strictly backwards.
	msg := []byte{0xc0, 0x00}
	if _, _, err := appendName(nil, msg, 0); err == nil {
		t.Error("self-pointer accepted")
	}
}

// Unpack decodes a wire-format message into a new Message: the one-shot
// decode of this package's tests. The program decodes with UnpackInto.
func Unpack(b []byte) (*Message, error) {
	m := new(Message)
	if err := UnpackInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// wireName is name in uncompressed wire form, appended to prefix.
func wireName(prefix []byte, name string) []byte {
	b, err := packName(prefix, name, nil)
	if err != nil {
		panic(err)
	}
	return b
}

func testRRs() []RR {
	mustAddr := netip.MustParseAddr
	var params svcb.Params
	_ = params.SetALPN([]string{"h2", "h3"})
	_ = params.SetIPv4Hints([]netip.Addr{mustAddr("104.16.132.229")})
	params.SetECH([]byte{0, 5, 1, 2, 3, 4, 5})
	return []RR{
		{Name: "a.com.", Type: TypeA, Class: ClassINET, TTL: 300, Data: &AData{Addr: mustAddr("1.2.3.4")}},
		{Name: "a.com.", Type: TypeAAAA, Class: ClassINET, TTL: 300, Data: &AAAAData{Addr: mustAddr("2606:4700::1")}},
		{Name: "b.com.", Type: TypeCNAME, Class: ClassINET, TTL: 60, Data: &CNAMEData{Target: "a.com."}},
		{Name: "a.com.", Type: TypeNS, Class: ClassINET, TTL: 86400, Data: &NSData{Host: "ns1.a.com."}},
		{Name: "a.com.", Type: TypeSOA, Class: ClassINET, TTL: 3600, Data: &SOAData{
			MName: "ns1.a.com.", RName: "hostmaster.a.com.", Serial: 2024010101,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "a.com.", Type: TypeTXT, Class: ClassINET, TTL: 300, Data: &RawData{Bytes: []byte("\x0bv=spf1 -all\x01x")}},
		{Name: "a.com.", Type: TypeMX, Class: ClassINET, TTL: 300, Data: &RawData{Bytes: wireName([]byte{0, 10}, "mx.a.com.")}},
		{Name: "_https._tcp.a.com.", Type: TypeSRV, Class: ClassINET, TTL: 300, Data: &RawData{
			Bytes: wireName([]byte{0, 1, 0, 5, 1, 0xbb}, "a.com.")}}, // priority 1, weight 5, port 443
		{Name: "sub.a.com.", Type: TypeDNAME, Class: ClassINET, TTL: 300, Data: &RawData{Bytes: wireName(nil, "other.net.")}},
		{Name: "a.com.", Type: TypeHTTPS, Class: ClassINET, TTL: 300, Data: &SVCBData{
			Priority: 1, Target: ".", Params: params}},
		{Name: "a.com.", Type: TypeHTTPS, Class: ClassINET, TTL: 300, Data: &SVCBData{
			Priority: 0, Target: "b.com."}},
		{Name: "a.com.", Type: TypeDS, Class: ClassINET, TTL: 3600, Data: &DSData{
			KeyTag: 12345, Algorithm: AlgECDSAP256SHA256, DigestType: DigestSHA256,
			Digest: bytes.Repeat([]byte{0xab}, 32)}},
		{Name: "a.com.", Type: TypeDNSKEY, Class: ClassINET, TTL: 3600, Data: &DNSKEYData{
			Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3, Algorithm: AlgECDSAP256SHA256,
			PublicKey: bytes.Repeat([]byte{0xcd}, 64)}},
		{Name: "a.com.", Type: TypeRRSIG, Class: ClassINET, TTL: 300, Data: &RRSIGData{
			TypeCovered: TypeHTTPS, Algorithm: AlgECDSAP256SHA256, Labels: 2,
			OriginalTTL: 300, Expiration: 1700000000, Inception: 1690000000,
			KeyTag: 4242, SignerName: "a.com.", Signature: bytes.Repeat([]byte{0xef}, 64)}},
		{Name: "a.com.", Type: TypeNSEC, Class: ClassINET, TTL: 300, Data: &RawData{ // next name, then A RRSIG NSEC HTTPS
			Bytes: append(wireName(nil, "b.a.com."), 0, 9, 0x40, 0, 0, 0, 0, 0x03, 0, 0, 0x40)}},
	}
}

func TestRRWireRoundTrip(t *testing.T) {
	for _, rr := range testRRs() {
		wire, err := PackRR(nil, rr)
		if err != nil {
			t.Fatalf("PackRR(%s): %v", rr.Type, err)
		}
		sc := decScratchPool.Get().(*decodeScratch)
		got, off, err := unpackRRInto(wire, 0, RR{}, sc)
		putDecScratch(sc)
		if err != nil {
			t.Fatalf("unpackRR(%s): %v", rr.Type, err)
		}
		if off != len(wire) {
			t.Errorf("%s: trailing bytes after unpack", rr.Type)
		}
		if !reflect.DeepEqual(got, rr) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", rr.Type, got, rr)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := NewQuery(4242, "Example.COM", TypeHTTPS, true)
	m.Answer = testRRs()[:4]
	m.Authority = []RR{testRRs()[4]}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 4242 || !got.RecursionDesired || got.Response {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Question) != 1 || got.Question[0].Name != "example.com." || got.Question[0].Type != TypeHTTPS {
		t.Errorf("question mismatch: %+v", got.Question)
	}
	if !reflect.DeepEqual(got.Answer, m.Answer) {
		t.Errorf("answer mismatch:\n got %+v\nwant %+v", got.Answer, m.Answer)
	}
	if !got.DNSSECOK() {
		t.Error("DO bit lost")
	}
	if got.UDPSize() != MaxUDPSize {
		t.Errorf("UDPSize = %d", got.UDPSize())
	}
}

func TestMessageFlags(t *testing.T) {
	m := &Message{
		ID: 1, Response: true, Authoritative: true, Truncated: true,
		RecursionDesired: true, RecursionAvailable: true,
		AuthenticatedData: true, CheckingDisabled: true,
		RCode: RCodeNXDomain,
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("flags round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestReply(t *testing.T) {
	q := NewQuery(7, "a.com", TypeA, true)
	r := q.Reply()
	if !r.Response || r.ID != 7 || len(r.Question) != 1 {
		t.Errorf("Reply() = %+v", r)
	}
	if !r.DNSSECOK() {
		t.Error("Reply dropped DO bit")
	}
	q2 := &Message{ID: 9, Question: []Question{{Name: "a.com.", Type: TypeA, Class: ClassINET}}}
	if q2.Reply().OPT() != nil {
		t.Error("Reply added OPT to non-EDNS query")
	}
}

func TestAliasModeRejectsParams(t *testing.T) {
	var params svcb.Params
	params.SetPort(443)
	rr := RR{Name: "a.com.", Type: TypeHTTPS, Class: ClassINET, TTL: 300,
		Data: &SVCBData{Priority: 0, Target: "b.com.", Params: params}}
	if _, err := PackRR(nil, rr); err == nil {
		t.Error("AliasMode with params packed successfully")
	}
}

func TestUnpackCorruptMessages(t *testing.T) {
	m := NewQuery(1, "a.com", TypeHTTPS, false)
	m.Answer = testRRs()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Any truncation must error, never panic.
	for i := 0; i < len(wire); i++ {
		_, _ = Unpack(wire[:i])
	}
	// Random corruption must never panic.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), wire...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			corrupt[rng.Intn(len(corrupt))] = byte(rng.Intn(256))
		}
		_, _ = Unpack(corrupt)
	}
}

// TestFNV1aMatchesHashFNV: the helper the scanner's ECH key hash, the
// world's per-domain seeds and the pool's member seeds are computed with
// must equal hash/fnv's New64a bit for bit, on strings and bytes alike,
// and allocate nothing.
func TestFNV1aMatchesHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "example.com.", "198.41.0.4", "\x00\xff\x80 ünïcode"} {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		if got, want := FNV1a(s), ref.Sum64(); got != want {
			t.Errorf("FNV1a(%q) = %#x, hash/fnv %#x", s, got, want)
		}
		if got, want := FNV1a([]byte(s)), ref.Sum64(); got != want {
			t.Errorf("FNV1a([]byte(%q)) = %#x, hash/fnv %#x", s, got, want)
		}
	}
	name, key := "site0001.example.", bytes.Repeat([]byte{0xa5}, 32)
	if n := testing.AllocsPerRun(100, func() { _ = FNV1a(name) + FNV1a(key) }); n != 0 {
		t.Errorf("FNV1a allocated %v times", n)
	}
}

func TestKeyTagStable(t *testing.T) {
	key := &DNSKEYData{Flags: 257, Protocol: 3, Algorithm: AlgECDSAP256SHA256,
		PublicKey: bytes.Repeat([]byte{1, 2, 3, 4}, 16)}
	tag1 := key.KeyTag()
	tag2 := key.KeyTag()
	if tag1 != tag2 {
		t.Error("KeyTag not deterministic")
	}
	key2 := key.clone().(*DNSKEYData)
	key2.PublicKey[0] ^= 0xff
	if key2.KeyTag() == tag1 {
		t.Error("KeyTag insensitive to key bytes")
	}
}

// TestKeyTagMatchesWireSum: KeyTag, read from the fields, equals RFC 4034
// Appendix B's sum over the packed RDATA, on keys of even and odd length,
// and allocates nothing (SigMemo.Verify asks for it on every memo hit).
func TestKeyTagMatchesWireSum(t *testing.T) {
	wireSum := func(d *DNSKEYData) uint16 {
		wire, _ := d.pack(nil, nil)
		var ac uint32
		for i, b := range wire {
			if i&1 == 1 {
				ac += uint32(b)
			} else {
				ac += uint32(b) << 8
			}
		}
		ac += ac >> 16 & 0xffff
		return uint16(ac)
	}
	keys := []*DNSKEYData{
		{Flags: 257, Protocol: 3, Algorithm: AlgECDSAP256SHA256, PublicKey: bytes.Repeat([]byte{0xff}, 64)},
		{Flags: 256, Protocol: 3, Algorithm: AlgECDSAP256SHA256, PublicKey: bytes.Repeat([]byte{1, 2, 3}, 11)},
		{Flags: 0xffff, Protocol: 0xff, Algorithm: 0xff, PublicKey: []byte{0xff}},
		{Flags: 257, Protocol: 3, Algorithm: 8},
		{Flags: 1, Protocol: 2, Algorithm: 3, PublicKey: bytes.Repeat([]byte{0xfe, 0xdc, 0xba}, 9999)},
	}
	for _, k := range keys {
		if got, want := k.KeyTag(), wireSum(k); got != want {
			t.Errorf("KeyTag of a %d-byte key = %d, wire sum %d", len(k.PublicKey), got, want)
		}
	}
	if testrace.Enabled {
		return // the race detector's instrumentation allocates
	}
	if n := testing.AllocsPerRun(100, func() { _ = keys[1].KeyTag() }); n != 0 {
		t.Errorf("KeyTag allocated %v times", n)
	}
}

func TestRRString(t *testing.T) {
	for _, rr := range testRRs() {
		s := rr.String()
		if !strings.Contains(s, rr.Type.String()) {
			t.Errorf("String() for %s missing type: %q", rr.Type, s)
		}
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	if TypeHTTPS.String() != "HTTPS" || Type(9999).String() != "TYPE9999" {
		t.Error("Type.String broken")
	}
	if ClassINET.String() != "IN" || Class(7).String() != "CLASS7" {
		t.Error("Class.String broken")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(77).String() != "RCODE77" {
		t.Error("RCode.String broken")
	}
}

// Property: packing then unpacking any message built from random valid RRs
// is the identity.
func TestQuickMessageRoundTrip(t *testing.T) {
	rrs := testRRs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewQuery(uint16(rng.Intn(65536)), "q.example.org", TypeHTTPS, rng.Intn(2) == 0)
		m.Response = true
		n := rng.Intn(len(rrs))
		for i := 0; i < n; i++ {
			m.Answer = append(m.Answer, rrs[rng.Intn(len(rrs))].Clone())
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Answer, m.Answer)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: compression never changes decoded names.
func TestQuickCompressionCorrectness(t *testing.T) {
	labels := []string{"www", "mail", "a", "cdn", "example", "test", "com", "org", "net"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var names []string
		for i := 0; i < 1+rng.Intn(10); i++ {
			n := 1 + rng.Intn(4)
			parts := make([]string, n)
			for j := range parts {
				parts[j] = labels[rng.Intn(len(labels))]
			}
			names = append(names, strings.Join(parts, ".")+".")
		}
		cmap := getCmap(0)
		defer putCmap(cmap)
		var buf []byte
		var offsets []int
		for _, name := range names {
			offsets = append(offsets, len(buf))
			var err error
			buf, err = packName(buf, name, cmap)
			if err != nil {
				return false
			}
		}
		for i, name := range names {
			got, _, err := appendName(nil, buf, offsets[i])
			if err != nil || string(got) != name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRawRDATARefusesCompressedNames pins what the decoder does with a
// name-bearing RFC 1035 type it keeps raw (RFC 3597 §4): a name holding a
// compression pointer is refused, because the copied pointer would aim into
// whichever message re-packs the record — an MR whose RDATA is c0 0c, taken
// as it stands, reads as the question's name in every answer it is served
// in, "zzzz.longer-name.example." behind a longer question, not
// "a.example.". A plain-label MX is kept and re-packs byte for byte. Both
// hold for a fresh Message and for one recycled from a dirty decode.
func TestRawRDATARefusesCompressedNames(t *testing.T) {
	dirtyTmpl := NewQuery(7, "dirty.example", TypeMX, true).Reply()
	dirtyTmpl.Answer = append(dirtyTmpl.Answer,
		RR{Name: "dirty.example.", Type: TypeMX, Class: ClassINET, TTL: 60,
			Data: &RawData{Bytes: wireName([]byte{0, 99}, "stale.leak-canary.example.")}},
		RR{Name: "dirty.example.", Type: TypeHTTPS, Class: ClassINET, TTL: 60,
			Data: &SVCBData{Priority: 1, Target: "svc.dirty.example."}})
	dirtyWire, err := dirtyTmpl.Pack()
	if err != nil {
		t.Fatal(err)
	}
	const typeMR = Type(9)
	for _, into := range []string{"fresh", "dirty"} {
		decode := func(wire []byte) (*Message, error) {
			m := new(Message)
			if into == "dirty" {
				if err := UnpackInto(m, dirtyWire); err != nil {
					t.Fatal(err)
				}
			}
			return m, UnpackInto(m, wire)
		}
		for _, c := range []struct {
			what string
			wire []byte
		}{
			{"MR c0 0c", rawAnswerWire(typeMR, []byte{0xc0, 0x0c})},
			{"MX mx + pointer", rawAnswerWire(TypeMX, mxPointer)},
		} {
			if m, err := decode(c.wire); !errors.Is(err, ErrBadPointer) {
				t.Errorf("%s, %s: error %v, want ErrBadPointer; decoded %v", into, c.what, err, m.Answer)
			}
		}
		wire := rawAnswerWire(TypeMX, mxPlain)
		m, err := decode(wire)
		if err != nil {
			t.Fatalf("%s, plain MX: %v", into, err)
		}
		if d, ok := m.Answer[0].Data.(*RawData); !ok || !bytes.Equal(d.Bytes, mxPlain) {
			t.Errorf("%s, plain MX decoded to %#v, want RawData %x", into, m.Answer[0].Data, mxPlain)
		}
		if got, err := m.AppendPack(nil); err != nil || !bytes.Equal(got, wire) {
			t.Errorf("%s, plain MX re-packs to %x (%v), want %x", into, got, err, wire)
		}
	}
}
