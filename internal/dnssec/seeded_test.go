package dnssec

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// Two private-use types (RFC 6895): their RDATA is opaque bytes, so a set
// can be retyped without re-encoding it.
const (
	typeSeeded = dnswire.Type(65280)
	typeOther  = dnswire.Type(65281)
)

// seededInput is what a verification is handed: a signature the process
// made, the RRset, a DNSKEY and the time. other is the zone's other key.
type seededInput struct {
	sig        dnswire.RR
	rrs        []dnswire.RR
	key, other dnswire.RR
	now        time.Time
}

// seededChanges each alter one input of a verification; arg picks the
// byte, member, bound or variant.
var seededChanges = []struct {
	name  string
	apply func(in *seededInput, arg uint16)
}{
	{"signature byte flipped in place", func(in *seededInput, arg uint16) {
		in.sig.Data.(*dnswire.RRSIGData).SignatureBytes()[arg%64] ^= 1 << (arg >> 8 % 8)
	}},
	{"one member changed", func(in *seededInput, arg uint16) {
		in.rrs = slices.Clone(in.rrs)
		i := int(arg) % len(in.rrs)
		b := slices.Clone(in.rrs[i].Data.(*dnswire.RawData).Bytes)
		b[int(arg>>8)%len(b)] ^= 1 << (arg % 8)
		in.rrs[i].Data = &dnswire.RawData{Bytes: b}
	}},
	{"the zone's other key", func(in *seededInput, _ uint16) { in.key = in.other }},
	{"outside the validity window", func(in *seededInput, arg uint16) {
		sig := in.sig.Data.(*dnswire.RRSIGData)
		by := time.Duration(1+arg/2) * time.Second
		if arg%2 == 0 {
			in.now = time.Unix(int64(sig.Inception), 0).Add(-by)
		} else {
			in.now = time.Unix(int64(sig.Expiration), 0).Add(by)
		}
	}},
	{"another type covered", func(in *seededInput, arg uint16) {
		in.sig = in.sig.Clone()
		in.sig.Data.(*dnswire.RRSIGData).TypeCovered = typeOther
		if arg%2 == 1 { // the same signature bytes over the set retyped to match
			in.rrs = slices.Clone(in.rrs)
			for i := range in.rrs {
				in.rrs[i].Type = typeOther
			}
		}
	}},
	{"an RRSIG field under the signature changed", func(in *seededInput, arg uint16) {
		in.sig = in.sig.Clone()
		in.sig.Data.(*dnswire.RRSIGData).OriginalTTL += 1 + uint32(arg)
	}},
}

// signSeeded signs rrs with key and reads the signature, which adds its id
// to the process memo; the returned input verifies untouched.
func signSeeded(t testing.TB, key, other *KeyPair, rrs []dnswire.RR) seededInput {
	t.Helper()
	sig, err := SignRRset(key, rrs, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	sig.Data.(*dnswire.RRSIGData).SignatureBytes()
	return seededInput{sig: sig, rrs: rrs, key: key.DNSKEY(3600), other: other.DNSKEY(3600), now: testNow}
}

// checkSeeded holds the process memo's verdict on in equal to the plain
// verifier's, on first sight and on the repeat, and returns the plain one.
func checkSeeded(t *testing.T, in seededInput) error {
	t.Helper()
	plain := VerifyRRSIG(in.sig, in.rrs, in.key, in.now)
	for pass := 1; pass <= 2; pass++ {
		if got := processMemo.Verify(in.sig, in.rrs, in.key, in.now); errText(got) != errText(plain) {
			t.Fatalf("process memo, pass %d: %v; plain verifier: %v", pass, got, plain)
		}
	}
	return plain
}

// checkSeededHit holds that the untouched input verifies through the process
// memo as a hit: the signer seeded it, so no ECDSA runs.
func checkSeededHit(t *testing.T, in seededInput) {
	t.Helper()
	before := ReadCounts()
	if err := processMemo.Verify(in.sig, in.rrs, in.key, in.now); err != nil {
		t.Fatalf("untouched seeded signature: %v", err)
	}
	if n := ReadCounts().Sub(before); n.Verifies != 0 || n.Hits != 1 {
		t.Fatalf("untouched seeded signature: %d full verifies and %d memo hits, want 0 and 1", n.Verifies, n.Hits)
	}
}

// TestSeededMemoNeverVouchesForChangedInputs signs a set, reads the
// signature (the signer seeds the process memo with it) and then changes
// one input of the verification: the process memo's verdict must be the
// plain verifier's, and every change must fail. A memo id that left out the
// signing-input digest would vouch for the changed member and the retyped
// set.
func TestSeededMemoNeverVouchesForChangedInputs(t *testing.T) {
	zsk := DeriveKey(60, "example.com.", false)
	ksk := DeriveKey(60, "example.com.", true)
	rrs := []dnswire.RR{
		{Name: "www.example.com.", Type: typeSeeded, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.RawData{Bytes: []byte("first member")}},
		{Name: "www.example.com.", Type: typeSeeded, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.RawData{Bytes: []byte("second member")}},
	}
	for _, c := range seededChanges {
		for arg := range uint16(2) {
			t.Run(fmt.Sprintf("%s/%d", c.name, arg), func(t *testing.T) {
				in := signSeeded(t, zsk, ksk, rrs)
				checkSeededHit(t, in)
				c.apply(&in, arg)
				if err := checkSeeded(t, in); err == nil {
					t.Fatal("the plain verifier accepts the changed input")
				}
			})
		}
	}
}

// FuzzSeededMemo signs a set whose owner and RDATA come from the fuzzer,
// reads the signature (seeding the process memo) and applies the change
// sel picks, or none: the process memo's verdict must equal VerifyRRSIG's,
// and the untouched set must verify as a memo hit. A change need not fail:
// turning a duplicate member into its twin leaves the RRset as it was.
func FuzzSeededMemo(f *testing.F) {
	zsk := DeriveKey(61, "example.com.", false)
	ksk := DeriveKey(61, "example.com.", true)
	for sel := range uint8(len(seededChanges) + 1) {
		f.Add("www", []byte("\x03abcdefghij"), sel, uint16(sel)*257)
	}
	f.Add("", []byte{0, 'x'}, uint8(0), uint16(0))
	f.Add("MiXeD-Case", []byte("\x00\x00\x00"), uint8(2), uint16(0xffff))
	f.Add("0", []byte("0002"), uint8(2), uint16(705)) // members 0, 0, 2: the first becomes 2

	f.Fuzz(func(t *testing.T, label string, rdata []byte, sel uint8, arg uint16) {
		rrs := seededSet(label, rdata)
		if rrs == nil {
			return
		}
		in := signSeeded(t, zsk, ksk, rrs)
		checkSeededHit(t, in)
		if i := int(sel) % (len(seededChanges) + 1); i > 0 {
			seededChanges[i-1].apply(&in, arg)
			checkSeeded(t, in)
		}
	})
}

// seededSet builds a set of at most 8 private-type members under
// example.com.: the owner's first label is label's letters, digits and
// hyphens (none: the apex), and rdata[0] sets the length the rest is cut
// into, a short last member included. rdata of under two bytes builds
// nothing.
func seededSet(label string, rdata []byte) []dnswire.RR {
	if len(rdata) < 2 {
		return nil
	}
	label = strings.Map(func(r rune) rune {
		if r == '-' || (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return r
		}
		return -1
	}, label)
	owner := "example.com."
	if label != "" {
		owner = label[:min(len(label), 63)] + "." + owner
	}
	size := 1 + int(rdata[0]%16)
	var rrs []dnswire.RR
	for b := rdata[1:]; len(b) > 0 && len(rrs) < 8; {
		n := min(size, len(b))
		rrs = append(rrs, dnswire.RR{Name: owner, Type: typeSeeded, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.RawData{Bytes: slices.Clone(b[:n])}})
		b = b[n:]
	}
	return rrs
}
