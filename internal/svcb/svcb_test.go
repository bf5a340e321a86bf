package svcb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testrace"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		key  ParamKey
		want string
	}{
		{KeyMandatory, "mandatory"},
		{KeyALPN, "alpn"},
		{KeyNoDefaultALPN, "no-default-alpn"},
		{KeyPort, "port"},
		{KeyIPv4Hint, "ipv4hint"},
		{KeyECH, "ech"},
		{KeyIPv6Hint, "ipv6hint"},
		{ParamKey(7), "key7"},
		{ParamKey(65280), "key65280"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("ParamKey(%d).String() = %q, want %q", c.key, got, c.want)
		}
	}
}

func TestALPNRoundTrip(t *testing.T) {
	protos := []string{"h2", "h3", "http/1.1"}
	v, err := encodeALPN(protos)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeALPN(v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, protos) {
		t.Errorf("ALPN round trip = %v, want %v", got, protos)
	}
}

func TestALPNErrors(t *testing.T) {
	if _, err := encodeALPN([]string{""}); err == nil {
		t.Error("encodeALPN accepted empty id")
	}
	if _, err := decodeALPN([]byte{}); err == nil {
		t.Error("decodeALPN accepted empty value")
	}
	if _, err := decodeALPN([]byte{5, 'h', '2'}); err == nil {
		t.Error("decodeALPN accepted truncated id")
	}
	if _, err := decodeALPN([]byte{0}); err == nil {
		t.Error("decodeALPN accepted zero-length id")
	}
}

func TestParamsSetGetDelete(t *testing.T) {
	var ps Params
	ps.SetPort(8443)
	if err := ps.SetALPN([]string{"h2"}); err != nil {
		t.Fatal(err)
	}
	// List must stay key-sorted: alpn (1) before port (3).
	if ps[0].Key != KeyALPN || ps[1].Key != KeyPort {
		t.Errorf("params not sorted: %v", ps)
	}
	if port, ok := ps.Port(); !ok || port != 8443 {
		t.Errorf("Port() = %d, %v", port, ok)
	}
	ps.SetPort(443)
	if port, _ := ps.Port(); port != 443 {
		t.Errorf("Set did not replace: port = %d", port)
	}
	if len(ps) != 2 {
		t.Errorf("Set duplicated key: %v", ps)
	}
	ps.Delete(KeyPort)
	if ps.Has(KeyPort) {
		t.Error("Delete did not remove port")
	}
	ps.Delete(KeyPort) // idempotent
}

func TestPackUnpackRoundTrip(t *testing.T) {
	var ps Params
	if err := ps.SetALPN([]string{"h2", "h3"}); err != nil {
		t.Fatal(err)
	}
	ps.SetPort(8443)
	if err := ps.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("104.16.132.229")}); err != nil {
		t.Fatal(err)
	}
	if err := ps.SetIPv6Hints([]netip.Addr{netip.MustParseAddr("2606:4700::6810:84e5")}); err != nil {
		t.Fatal(err)
	}
	ps.SetECH([]byte{0x00, 0x45, 0xfe, 0x0d})

	wire, err := ps.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnpackParamsInto(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, ps)
	}
}

func TestUnpackRejectsUnsortedKeys(t *testing.T) {
	// port (3) followed by alpn (1): out of order.
	var wire []byte
	wire = binary.BigEndian.AppendUint16(wire, uint16(KeyPort))
	wire = binary.BigEndian.AppendUint16(wire, 2)
	wire = binary.BigEndian.AppendUint16(wire, 443)
	wire = binary.BigEndian.AppendUint16(wire, uint16(KeyALPN))
	wire = binary.BigEndian.AppendUint16(wire, 3)
	wire = append(wire, 2, 'h', '2')
	if _, err := UnpackParamsInto(nil, wire); err == nil {
		t.Error("UnpackParamsInto accepted unsorted keys")
	}
}

func TestUnpackRejectsDuplicateKeys(t *testing.T) {
	var wire []byte
	for i := 0; i < 2; i++ {
		wire = binary.BigEndian.AppendUint16(wire, uint16(KeyPort))
		wire = binary.BigEndian.AppendUint16(wire, 2)
		wire = binary.BigEndian.AppendUint16(wire, 443)
	}
	if _, err := UnpackParamsInto(nil, wire); err == nil {
		t.Error("UnpackParamsInto accepted duplicate keys")
	}
}

func TestUnpackTruncated(t *testing.T) {
	var ps Params
	ps.SetPort(443)
	wire, _ := ps.Pack(nil)
	for i := 1; i < len(wire); i++ {
		if _, err := UnpackParamsInto(nil, wire[:i]); err == nil {
			t.Errorf("UnpackParamsInto accepted truncation at %d", i)
		}
	}
}

func TestMandatoryValidation(t *testing.T) {
	var ps Params
	if err := ps.SetALPN([]string{"h2"}); err != nil {
		t.Fatal(err)
	}
	if err := ps.SetMandatory([]ParamKey{KeyALPN}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Validate(); err != nil {
		t.Errorf("valid mandatory rejected: %v", err)
	}
	keys, ok := ps.Mandatory()
	if !ok || len(keys) != 1 || keys[0] != KeyALPN {
		t.Errorf("Mandatory() = %v, %v", keys, ok)
	}

	// mandatory listing a missing key must fail validation.
	var ps2 Params
	if err := ps2.SetALPN([]string{"h2"}); err != nil {
		t.Fatal(err)
	}
	if err := ps2.SetMandatory([]ParamKey{KeyPort}); err != nil {
		t.Fatal(err)
	}
	if err := ps2.Validate(); err == nil {
		t.Error("Validate accepted mandatory key that is absent")
	}

	// mandatory must not include itself.
	var ps3 Params
	if err := ps3.SetMandatory([]ParamKey{KeyMandatory}); err == nil {
		t.Error("SetMandatory accepted self-reference")
	}
}

func TestValidateValueRules(t *testing.T) {
	cases := []struct {
		name string
		ps   Params
		ok   bool
	}{
		{"no-default-alpn empty", Params{{Key: KeyNoDefaultALPN}}, true},
		{"no-default-alpn nonempty", Params{{Key: KeyNoDefaultALPN, Value: []byte{1}}}, false},
		{"port wrong len", Params{{Key: KeyPort, Value: []byte{1}}}, false},
		{"ipv4hint bad len", Params{{Key: KeyIPv4Hint, Value: []byte{1, 2, 3}}}, false},
		{"ipv4hint empty", Params{{Key: KeyIPv4Hint}}, false},
		{"ipv6hint bad len", Params{{Key: KeyIPv6Hint, Value: make([]byte, 15)}}, false},
		{"ech empty", Params{{Key: KeyECH}}, false},
		{"ech ok", Params{{Key: KeyECH, Value: []byte{1}}}, true},
	}
	for _, c := range cases {
		err := c.ps.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestIPHintAccessors(t *testing.T) {
	var ps Params
	v4 := []netip.Addr{netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8")}
	v6 := []netip.Addr{netip.MustParseAddr("2001:db8::1")}
	if err := ps.SetIPv4Hints(v4); err != nil {
		t.Fatal(err)
	}
	if err := ps.SetIPv6Hints(v6); err != nil {
		t.Fatal(err)
	}
	got4, ok := ps.IPv4Hints()
	if !ok || !reflect.DeepEqual(got4, v4) {
		t.Errorf("IPv4Hints = %v, %v", got4, ok)
	}
	got6, ok := ps.IPv6Hints()
	if !ok || !reflect.DeepEqual(got6, v6) {
		t.Errorf("IPv6Hints = %v, %v", got6, ok)
	}
	if err := ps.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("::1")}); err == nil {
		t.Error("SetIPv4Hints accepted IPv6 address")
	}
	if err := ps.SetIPv6Hints([]netip.Addr{netip.MustParseAddr("1.2.3.4")}); err == nil {
		t.Error("SetIPv6Hints accepted IPv4 address")
	}
}

// TestSameAddrSet: hints agree with address records when the two hold the
// same addresses, whatever their order and repeats.
func TestSameAddrSet(t *testing.T) {
	x, y, z := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("2001:db8::1")
	for _, c := range []struct {
		a, b []netip.Addr
		want bool
	}{
		{[]netip.Addr{x}, []netip.Addr{x}, true},
		{[]netip.Addr{x, y}, []netip.Addr{y, x}, true},
		{[]netip.Addr{x, x}, []netip.Addr{x}, true}, // one hint per record, two records
		{[]netip.Addr{x}, []netip.Addr{x, x}, true},
		{[]netip.Addr{x, y}, []netip.Addr{x, x}, false},
		{[]netip.Addr{x}, []netip.Addr{x, y}, false},
		{[]netip.Addr{x}, []netip.Addr{y}, false},
		{[]netip.Addr{z}, []netip.Addr{z}, true},
		{[]netip.Addr{x}, nil, false},
		{nil, []netip.Addr{x}, false},
		{nil, nil, true},
	} {
		if got := SameAddrSet(c.a, c.b); got != c.want {
			t.Errorf("SameAddrSet(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestPresentationFormat pins the RFC 9460 presentation rendering of every
// registered key and of an unregistered one, the key order of a whole list,
// and the generic keyNNNNN="…" fallback for a malformed value.
func TestPresentationFormat(t *testing.T) {
	var ps Params
	for _, err := range []error{
		ps.SetMandatory([]ParamKey{KeyPort, KeyALPN}),
		ps.SetALPN([]string{"h2", "h3"}),
		ps.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8")}),
		ps.SetIPv6Hints([]netip.Addr{netip.MustParseAddr("2001:db8::1")}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	ps.Set(KeyNoDefaultALPN, nil)
	ps.SetPort(8443)
	ps.SetECH([]byte{0x00, 0x45, 0xfe, 0x0d})
	ps.Set(ParamKey(700), []byte("hello"))
	want := []string{ // one row per key, in key order
		"mandatory=alpn,port",
		"alpn=h2,h3",
		"no-default-alpn",
		"port=8443",
		"ipv4hint=1.2.3.4,5.6.7.8",
		"ech=AEX+DQ==",
		"ipv6hint=2001:db8::1",
		`key700="hello"`,
	}
	if len(ps) != len(want) {
		t.Fatalf("%d params, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if got := (Params{p}).String(); got != want[i] {
			t.Errorf("%v: String() = %q, want %q", p.Key, got, want[i])
		}
	}
	reversed := slices.Clone(ps)
	slices.Reverse(reversed)
	if got := reversed.String(); got != strings.Join(want, " ") {
		t.Errorf("whole list: String() = %q, want %q", got, strings.Join(want, " "))
	}
	if got := (Params{{Key: KeyPort, Value: []byte{1}}}).String(); got != `port="\x01"` {
		t.Errorf("malformed port: String() = %q", got)
	}
}

func TestClone(t *testing.T) {
	var ps Params
	ps.SetECH([]byte{1, 2, 3})
	c := ps.Clone()
	c[0].Value[0] = 99
	if v, _ := ps.ECH(); v[0] != 1 {
		t.Error("Clone shares value storage")
	}
	if Params(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

// Property: any randomly generated valid Params survives a wire round trip.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := randomParams(rng)
		wire, err := ps.Pack(nil)
		if err != nil {
			return false
		}
		got, err := UnpackParamsInto(nil, wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(ps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func normalize(ps Params) Params {
	if len(ps) == 0 {
		return nil
	}
	return ps
}

func randomParams(rng *rand.Rand) Params {
	var ps Params
	if rng.Intn(2) == 0 {
		n := rng.Intn(3) + 1
		protos := make([]string, n)
		for i := range protos {
			protos[i] = []string{"h2", "h3", "http/1.1", "h3-29"}[rng.Intn(4)]
		}
		// Dedup not needed; alpn allows repeats on the wire.
		_ = ps.SetALPN(protos)
	}
	if rng.Intn(2) == 0 {
		ps.SetPort(uint16(rng.Intn(65536)))
	}
	if rng.Intn(2) == 0 {
		n := rng.Intn(3) + 1
		addrs := make([]netip.Addr, n)
		for i := range addrs {
			var b [4]byte
			rng.Read(b[:])
			addrs[i] = netip.AddrFrom4(b)
		}
		_ = ps.SetIPv4Hints(addrs)
	}
	if rng.Intn(2) == 0 {
		b := make([]byte, rng.Intn(64)+1)
		rng.Read(b)
		ps.SetECH(b)
	}
	return ps
}

// Property: decoding into a recycled list takes its slots from the backing
// array's capacity, so a short blob between two decodes of a long one must
// change nothing about the second: for any blob — well-formed, truncated or
// with a flipped byte — a list that decoded it, then an empty blob, then it
// again agrees with a fresh decode on acceptance and content, reuses
// every Value buffer the first decode left (no allocation), and shares no
// Value storage with another live list decoded from the same bytes.
func TestQuickUnpackIntoShrinkThenGrow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wire, err := randomParams(rng).Pack(nil)
		if err != nil {
			return false
		}
		switch rng.Intn(4) {
		case 0:
			wire = wire[:rng.Intn(len(wire)+1)]
		case 1:
			if len(wire) > 0 {
				wire[rng.Intn(len(wire))] ^= byte(1 + rng.Intn(255))
			}
		}
		fresh, freshErr := UnpackParamsInto(nil, wire)
		// Two recycled lists with different pasts: a longer decode, and none.
		dirty, _ := randomParams(rng).Pack(nil)
		lists := make([]Params, 2)
		lists[0], _ = UnpackParamsInto(nil, dirty)
		for i := range lists {
			for _, blob := range [][]byte{wire, nil, wire} {
				ps, err := UnpackParamsInto(lists[i], blob)
				if (err == nil) != (freshErr == nil || blob == nil) {
					t.Logf("seed %d: acceptance diverged from a fresh decode: %v vs %v", seed, err, freshErr)
					return false
				}
				if err == nil {
					lists[i] = ps
				}
			}
		}
		if freshErr != nil {
			return true
		}
		for _, ps := range lists {
			if len(ps) != len(fresh) {
				return false
			}
			for j := range ps {
				if ps[j].Key != fresh[j].Key || !bytes.Equal(ps[j].Value, fresh[j].Value) {
					return false
				}
				for _, other := range [2]Params{fresh, lists[0]} {
					if &other[0] != &ps[0] && len(ps[j].Value) > 0 && &other[j].Value[0] == &ps[j].Value[0] {
						t.Logf("seed %d: param %d shares its value buffer with another live list", seed, j)
						return false
					}
				}
			}
		}
		if !testrace.Enabled {
			ps := lists[0]
			if n := testing.AllocsPerRun(10, func() {
				ps, _ = UnpackParamsInto(ps, nil)
				ps, _ = UnpackParamsInto(ps, wire)
			}); n != 0 {
				t.Logf("seed %d: shrink-then-grow re-decode allocated %v times", seed, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSetAndPackOrder: Set leaves the list in key order whatever order the
// keys arrive in — and whatever order a hand-built list was in before —
// and Pack emits the same bytes for an ordered list (packed as it stands)
// and a shuffled one (copied and sorted), rejecting duplicates in both.
func TestSetAndPackOrder(t *testing.T) {
	keys := []ParamKey{KeyALPN, KeyPort, KeyIPv4Hint, KeyECH, KeyIPv6Hint, ParamKey(700)}
	var ordered Params
	for _, k := range keys {
		ordered.Set(k, []byte{byte(k), 1})
	}
	want, err := ordered.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var viaSet, literal Params
		for _, k := range keys {
			viaSet.Set(k, []byte{byte(k), 1})
			literal = append(literal, Param{Key: k, Value: []byte{byte(k), 1}})
		}
		if !reflect.DeepEqual(viaSet, ordered) {
			t.Fatalf("Set in order %v left %v", keys, viaSet)
		}
		before := append(Params(nil), literal...)
		got, err := literal.Pack(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Pack of keys %v: %x, %v; want %x", keys, got, err, want)
		}
		if !reflect.DeepEqual(literal, before) {
			t.Fatal("Pack reordered its receiver")
		}
		literal.Set(KeyMandatory, []byte{0, 1})
		if !reflect.DeepEqual(literal[1:], ordered) || literal[0].Key != KeyMandatory {
			t.Fatalf("Set on a shuffled list left %v", literal)
		}
	}
	for _, dup := range []Params{
		{{Key: KeyALPN}, {Key: KeyALPN}},
		{{Key: KeyPort}, {Key: KeyALPN}, {Key: KeyPort}},
	} {
		if _, err := dup.Pack(nil); err == nil {
			t.Errorf("Pack accepted duplicate keys %v", dup)
		}
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf, _ = ordered.Pack(buf[:0]) }); n != 0 && !testrace.Enabled {
		t.Errorf("Pack of an ordered list: %v allocations, want 0", n)
	}
}
