package dnssec

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
)

var (
	testNow        = time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC)
	testInception  = testNow.Add(-24 * time.Hour)
	testExpiration = testNow.Add(30 * 24 * time.Hour)
)

// rfc6979Key is the P-256 private key of RFC 6979 appendix A.2.5.
func rfc6979Key(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	x, _ := hex.DecodeString("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721")
	priv, err := p256Key(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(encodePublicKey(&priv.PublicKey)); got !=
		"60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6"+
			"7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299" {
		t.Fatalf("public key of the RFC 6979 scalar = %s", got)
	}
	return priv
}

// TestSignDigestPadsShortIntegers: one signature in 256 has an r (or an s)
// under 2²⁴⁸, whose big-endian bytes are under 32. Every signature must
// still be 64 bytes with r and s left-padded in their own halves, which is
// what verifies.
func TestSignDigestPadsShortIntegers(t *testing.T) {
	priv := rfc6979Key(t)
	var shortR, shortS int
	for i := 0; shortR == 0 || shortS == 0; i++ {
		if i == 5000 {
			t.Fatalf("no short integer in %d signatures (short r %d, short s %d)", i, shortR, shortS)
		}
		digest := sha256.Sum256(fmt.Appendf(nil, "sample-%d", i))
		sig, err := signDigest(priv, digest)
		if err != nil {
			t.Fatal(err)
		}
		if len(sig) != 64 {
			t.Fatalf("message %d: signature is %d bytes", i, len(sig))
		}
		r, s := new(big.Int).SetBytes(sig[:32]), new(big.Int).SetBytes(sig[32:])
		if !ecdsa.Verify(&priv.PublicKey, digest[:], r, s) {
			t.Fatalf("message %d: r‖s %x does not verify", i, sig)
		}
		if sig[0] == 0 {
			shortR++
		}
		if sig[32] == 0 {
			shortS++
		}
	}
}

// TestDeriveKey: a key is a function of (seed, canonical zone, role) and of
// nothing else, and what it signs verifies.
func TestDeriveKey(t *testing.T) {
	pub := func(k *KeyPair) []byte { return k.DNSKEY(3600).Data.(*dnswire.DNSKEYData).PublicKey }
	base := DeriveKey(7, "example.com.", true)
	if again := DeriveKey(7, "example.com.", true); !bytes.Equal(pub(base), pub(again)) || base.Private.D.Cmp(again.Private.D) != 0 {
		t.Error("equal inputs gave different keys")
	}
	if spelled := DeriveKey(7, " Example.COM", true); spelled.Zone != "example.com." || !bytes.Equal(pub(base), pub(spelled)) {
		t.Errorf("zone %q not canonicalised into the same key", spelled.Zone)
	}
	for name, other := range map[string]*KeyPair{
		"seed": DeriveKey(8, "example.com.", true),
		"zone": DeriveKey(7, "example.org.", true),
		"role": DeriveKey(7, "example.com.", false),
	} {
		if bytes.Equal(pub(base), pub(other)) {
			t.Errorf("a different %s gave the same key", name)
		}
	}
	rrs := []dnswire.RR{base.DNSKEY(3600)}
	sig, err := SignRRset(base, rrs, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRRSIG(sig, rrs, base.DNSKEY(3600), testNow); err != nil {
		t.Errorf("signature of a derived key rejected: %v", err)
	}
	again, _ := SignRRset(DeriveKey(7, "example.com.", true), rrs, testInception, testExpiration)
	if !bytes.Equal(sig.Data.(*dnswire.RRSIGData).SignatureBytes(), again.Data.(*dnswire.RRSIGData).SignatureBytes()) {
		t.Error("the same key signed the same RRset into different bytes")
	}
}

func TestKeyTagMatchesDNSKEY(t *testing.T) {
	key := DeriveKey(1, "example.com", true)
	rr := key.DNSKEY(3600)
	data := rr.Data.(*dnswire.DNSKEYData)
	if key.KeyTag() != data.KeyTag() {
		t.Error("KeyTag mismatch between KeyPair and DNSKEYData")
	}
	if !data.IsKSK() {
		t.Error("KSK flag not set")
	}
	zsk := DeriveKey(2, "example.com", false)
	if zsk.DNSKEY(0).Data.(*dnswire.DNSKEYData).IsKSK() {
		t.Error("ZSK has SEP flag")
	}
}

func TestSignVerifyRRset(t *testing.T) {
	key := DeriveKey(3, "example.com", false)
	rrs := []dnswire.RR{
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.AData{Addr: netip.MustParseAddr("1.2.3.4")}},
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.AData{Addr: netip.MustParseAddr("5.6.7.8")}},
	}
	sig, err := SignRRset(key, rrs, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRRSIG(sig, rrs, key.DNSKEY(3600), testNow); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	// Order must not matter (canonical ordering).
	swapped := []dnswire.RR{rrs[1], rrs[0]}
	if err := VerifyRRSIG(sig, swapped, key.DNSKEY(3600), testNow); err != nil {
		t.Errorf("reordered RRset rejected: %v", err)
	}
	// TTL must not matter (original TTL is in the RRSIG).
	bumped := []dnswire.RR{rrs[0].Clone(), rrs[1].Clone()}
	bumped[0].TTL, bumped[1].TTL = 150, 150
	if err := VerifyRRSIG(sig, bumped, key.DNSKEY(3600), testNow); err != nil {
		t.Errorf("TTL-decayed RRset rejected: %v", err)
	}
}

// An RRSIG whose signer name does not pack (a 64-byte label) is an error
// wherever its fields are packed: alone, inside a message, when signing and
// when verifying. None of them may pack the rest of the record around a
// signer it dropped.
func TestOverlongSignerFailsEveryPack(t *testing.T) {
	zone := strings.Repeat("x", 64) + ".example."
	key := DeriveKey(3, zone, false)
	rrs := []dnswire.RR{{Name: "a.example.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("1.2.3.4")}}}
	if _, err := SignRRset(key, rrs, testInception, testExpiration); !errors.Is(err, dnswire.ErrLabelTooLong) {
		t.Errorf("SignRRset: err = %v, want %v", err, dnswire.ErrLabelTooLong)
	}
	sig := dnswire.RR{Name: "a.example.", Type: dnswire.TypeRRSIG, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.RRSIGData{TypeCovered: dnswire.TypeA, Algorithm: dnswire.AlgECDSAP256SHA256,
			Labels: 2, OriginalTTL: 300, Expiration: uint32(testExpiration.Unix()),
			Inception: uint32(testInception.Unix()), KeyTag: key.KeyTag(), SignerName: zone,
			Signature: make([]byte, 64)}}
	if b, err := dnswire.PackRR(nil, sig); !errors.Is(err, dnswire.ErrLabelTooLong) {
		t.Errorf("PackRR: %x, err = %v, want %v", b, err, dnswire.ErrLabelTooLong)
	}
	m := dnswire.NewQuery(1, "a.example.", dnswire.TypeA, true).Reply()
	m.Answer = append(m.Answer, rrs[0], sig)
	if b, err := m.Pack(); !errors.Is(err, dnswire.ErrLabelTooLong) {
		t.Errorf("Message.Pack: %x, err = %v, want %v", b, err, dnswire.ErrLabelTooLong)
	}
	if err := VerifyRRSIG(sig, rrs, key.DNSKEY(3600), testNow); !errors.Is(err, dnswire.ErrLabelTooLong) {
		t.Errorf("VerifyRRSIG: err = %v, want %v", err, dnswire.ErrLabelTooLong)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := DeriveKey(5, "example.com", false)
	rrs := []dnswire.RR{{Name: "a.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("1.2.3.4")}}}
	sig, err := SignRRset(key, rrs, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []dnswire.RR{rrs[0].Clone()}
	tampered[0].Data = &dnswire.AData{Addr: netip.MustParseAddr("6.6.6.6")}
	if err := VerifyRRSIG(sig, tampered, key.DNSKEY(3600), testNow); err == nil {
		t.Error("tampered RRset verified")
	}
	// Corrupt the signature bytes.
	badSig := sig.Clone()
	badSig.Data.(*dnswire.RRSIGData).SignatureBytes()[10] ^= 0xff
	if err := VerifyRRSIG(badSig, rrs, key.DNSKEY(3600), testNow); err == nil {
		t.Error("corrupted signature verified")
	}
	// Wrong key.
	other := DeriveKey(7, "example.com", false)
	if err := VerifyRRSIG(sig, rrs, other.DNSKEY(3600), testNow); err == nil {
		t.Error("signature verified with unrelated key")
	}
}

func TestVerifyValidityWindow(t *testing.T) {
	key := DeriveKey(8, "example.com", false)
	rrs := []dnswire.RR{{Name: "a.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("1.2.3.4")}}}
	sig, err := SignRRset(key, rrs, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRRSIG(sig, rrs, key.DNSKEY(3600), testExpiration.Add(time.Hour)); err != ErrExpired {
		t.Errorf("expired signature: err = %v", err)
	}
	if err := VerifyRRSIG(sig, rrs, key.DNSKEY(3600), testInception.Add(-time.Hour)); err != ErrExpired {
		t.Errorf("not-yet-valid signature: err = %v", err)
	}
}

func TestDSMatching(t *testing.T) {
	key := DeriveKey(10, "example.com", true)
	ds, err := key.DS(3600)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesDS(key.DNSKEY(3600), ds) {
		t.Error("DS does not match its own DNSKEY")
	}
	other := DeriveKey(11, "example.com", true)
	if matchesDS(other.DNSKEY(3600), ds) {
		t.Error("DS matched unrelated DNSKEY")
	}
}

// testWorld builds a three-level signed hierarchy: . → com. → example.com.
type testWorld struct {
	records map[string][]dnswire.RR // key: name|type for RRsets
	sigs    map[string][]dnswire.RR
	rootKey *KeyPair
	zoneKey map[string]*KeyPair
}

func rrKey(name string, t dnswire.Type) string {
	return dnswire.CanonicalName(name) + "|" + t.String()
}

func (w *testWorld) FetchRRset(name string, t dnswire.Type) ([]dnswire.RR, []dnswire.RR, bool) {
	rrs, ok := w.records[rrKey(name, t)]
	return rrs, w.sigs[rrKey(name, t)], ok
}

func (w *testWorld) add(t *testing.T, signer *KeyPair, rrs ...dnswire.RR) {
	t.Helper()
	k := rrKey(rrs[0].Name, rrs[0].Type)
	w.records[k] = rrs
	if signer != nil {
		sig, err := SignRRset(signer, rrs, testInception, testExpiration)
		if err != nil {
			t.Fatalf("signing %s: %v", k, err)
		}
		w.sigs[k] = []dnswire.RR{sig}
	}
}

func buildWorld(t *testing.T, signExample bool, uploadDS bool) *testWorld {
	t.Helper()
	w := &testWorld{
		records: map[string][]dnswire.RR{},
		sigs:    map[string][]dnswire.RR{},
		zoneKey: map[string]*KeyPair{},
	}
	w.rootKey = DeriveKey(20, ".", true)
	comKey := DeriveKey(21, "com.", true)
	exKey := DeriveKey(22, "example.com.", true)
	w.zoneKey["com."] = comKey
	w.zoneKey["example.com."] = exKey

	ns := func(zone, host string) dnswire.RR {
		return dnswire.RR{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
			Data: &dnswire.NSData{Host: host}}
	}
	// Root zone: self-signed DNSKEY, NS, DS for com.
	w.add(t, w.rootKey, w.rootKey.DNSKEY(3600))
	w.add(t, w.rootKey, ns(".", "a.root-servers.net."))
	comDS, _ := comKey.DS(3600)
	w.add(t, w.rootKey, comDS)

	// com zone.
	w.add(t, comKey, comKey.DNSKEY(3600))
	w.add(t, comKey, ns("com.", "a.gtld-servers.net."))
	if uploadDS {
		exDS, _ := exKey.DS(3600)
		w.add(t, comKey, exDS)
	}

	// example.com zone.
	w.add(t, exKey, ns("example.com.", "ns1.example.com."))
	a := dnswire.RR{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.AData{Addr: netip.MustParseAddr("93.184.216.34")}}
	if signExample {
		w.add(t, exKey, exKey.DNSKEY(3600))
		w.add(t, exKey, a)
	} else {
		w.add(t, nil, a)
	}
	return w
}

func TestValidateSecureChain(t *testing.T) {
	w := buildWorld(t, true, true)
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, err := v.Validate("www.example.com.", dnswire.TypeA)
	if res != Secure {
		t.Errorf("Validate = %v (%v), want secure", res, err)
	}
}

func TestValidateInsecureMissingDS(t *testing.T) {
	// example.com signs its records but never uploaded DS to com: the
	// misconfiguration behind the paper's 49.4% insecure ratio.
	w := buildWorld(t, true, false)
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, err := v.Validate("www.example.com.", dnswire.TypeA)
	if res != Insecure {
		t.Errorf("Validate = %v (%v), want insecure", res, err)
	}
}

func TestValidateBogusTamperedRecord(t *testing.T) {
	w := buildWorld(t, true, true)
	// An attacker swaps the A record without being able to re-sign.
	k := rrKey("www.example.com.", dnswire.TypeA)
	w.records[k][0].Data = &dnswire.AData{Addr: netip.MustParseAddr("6.6.6.6")}
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, _ := v.Validate("www.example.com.", dnswire.TypeA)
	if res != Bogus {
		t.Errorf("Validate = %v, want bogus", res)
	}
}

func TestValidateBogusUnsignedInSignedZone(t *testing.T) {
	w := buildWorld(t, true, true)
	// Strip the RRSIG of the target RRset while the zone stays signed.
	delete(w.sigs, rrKey("www.example.com.", dnswire.TypeA))
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, _ := v.Validate("www.example.com.", dnswire.TypeA)
	if res != Bogus {
		t.Errorf("Validate = %v, want bogus", res)
	}
}

func TestValidateBogusWrongAnchor(t *testing.T) {
	w := buildWorld(t, true, true)
	evil := DeriveKey(66, ".", true)
	v := NewValidator(w, []dnswire.RR{evil.DNSKEY(3600)}, testNow)
	res, _ := v.Validate("www.example.com.", dnswire.TypeA)
	if res != Bogus {
		t.Errorf("Validate = %v, want bogus", res)
	}
}

func TestValidateIndeterminateMissing(t *testing.T) {
	w := buildWorld(t, true, true)
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, _ := v.Validate("missing.example.com.", dnswire.TypeA)
	if res != Indeterminate {
		t.Errorf("Validate = %v, want indeterminate", res)
	}
}

func TestValidateHTTPSRecordChain(t *testing.T) {
	// The paper's target record type end-to-end: a signed HTTPS record.
	w := buildWorld(t, true, true)
	exKey := w.zoneKey["example.com."]
	httpsRR := dnswire.RR{Name: "example.com.", Type: dnswire.TypeHTTPS,
		Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.SVCBData{Priority: 1, Target: "."}}
	w.add(t, exKey, httpsRR)
	v := NewValidator(w, w.records[rrKey(".", dnswire.TypeDNSKEY)], testNow)
	res, err := v.Validate("example.com.", dnswire.TypeHTTPS)
	if res != Secure {
		t.Errorf("Validate HTTPS = %v (%v), want secure", res, err)
	}
}
