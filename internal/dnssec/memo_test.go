package dnssec

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// memoFixture is one signed RRset, its key, and a memo that has already
// seen the good signature verify — the state every hostile case starts from.
type memoFixture struct {
	key  *KeyPair
	rrs  []dnswire.RR
	sig  dnswire.RR
	memo *SigMemo
}

func newMemoFixture(t testing.TB) memoFixture {
	t.Helper()
	key := DeriveKey(40, "example.com.", false)
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
	f := memoFixture{key: key, rrs: rrs, sig: sig, memo: new(SigMemo)}
	if err := f.memo.Verify(sig, rrs, key.DNSKEY(3600), testNow); err != nil {
		t.Fatalf("priming verify: %v", err)
	}
	if f.memo.len() != 1 {
		t.Fatalf("memo holds %d entries after one good verify, want 1", f.memo.len())
	}
	return f
}

func (m *SigMemo) len() int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].m)
	}
	return n
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMemoHostileInputs primes the memo with a good verification and then
// presents what an attacker (or the calendar) would: the memoised verdict
// must be the plain verifier's, error for error, and a rejected input must
// leave the memo exactly as it was.
func TestMemoHostileInputs(t *testing.T) {
	f := newMemoFixture(t)
	good := f.key.DNSKEY(3600)

	otherKey := DeriveKey(42, "example.com.", false)
	wrongAlg := good.Clone()
	wrongAlg.Data.(*dnswire.DNSKEYData).Algorithm = 8 // RSASHA256: a downgrade
	wrongOwner := good.Clone()
	wrongOwner.Name = "evil.example."
	flipped := f.sig.Clone()
	flipped.Data.(*dnswire.RRSIGData).SignatureBytes()[17] ^= 0x01
	swapped := []dnswire.RR{f.rrs[0].Clone(), f.rrs[1].Clone()}
	swapped[1].Data = &dnswire.AData{Addr: netip.MustParseAddr("6.6.6.6")}

	cases := []struct {
		name string
		sig  dnswire.RR
		rrs  []dnswire.RR
		key  dnswire.RR
		now  time.Time
		want error // nil: any error, but the same one both ways
	}{
		{"expired", f.sig, f.rrs, good, testExpiration.Add(time.Second), ErrExpired},
		{"not yet valid", f.sig, f.rrs, good, testInception.Add(-time.Second), ErrExpired},
		{"other key tag", f.sig, f.rrs, otherKey.DNSKEY(3600), testNow, ErrNoKey},
		{"algorithm downgrade", f.sig, f.rrs, wrongAlg, testNow, nil},
		{"other owner", f.sig, f.rrs, wrongOwner, testNow, nil},
		{"flipped signature bit", flipped, f.rrs, good, testNow, ErrBadSignature},
		{"rdata swapped under the signature", f.sig, swapped, good, testNow, ErrBadSignature},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := VerifyRRSIG(tc.sig, tc.rrs, tc.key, tc.now)
			if plain == nil {
				t.Fatal("plain verifier accepted a hostile input")
			}
			if tc.want != nil && plain != tc.want {
				t.Errorf("plain verifier: %v, want %v", plain, tc.want)
			}
			for pass := 1; pass <= 2; pass++ {
				if got := f.memo.Verify(tc.sig, tc.rrs, tc.key, tc.now); errText(got) != errText(plain) {
					t.Errorf("memoised pass %d: %v, plain: %v", pass, got, plain)
				}
			}
			if f.memo.len() != 1 {
				t.Errorf("memo grew to %d entries on a rejected input", f.memo.len())
			}
			// The good signature still verifies, inside its window.
			if err := f.memo.Verify(f.sig, f.rrs, good, testNow); err != nil {
				t.Errorf("good signature after hostile input: %v", err)
			}
		})
	}
}

// TestValidatorHostileChainMemoOnAndOff runs the chain validator over the
// same tampered worlds with the memo nil and primed by a Secure pass: the
// outcome and the error must not depend on it.
func TestValidatorHostileChainMemoOnAndOff(t *testing.T) {
	www := rrKey("www.example.com.", dnswire.TypeA)
	cases := []struct {
		name   string
		now    time.Time
		tamper func(t *testing.T, w *testWorld)
		want   Result
	}{
		{"untouched", testNow, func(*testing.T, *testWorld) {}, Secure},
		{"past expiration", testExpiration.Add(time.Hour), func(*testing.T, *testWorld) {}, Bogus},
		{"before inception", testInception.Add(-time.Hour), func(*testing.T, *testWorld) {}, Bogus},
		{"flipped signature byte", testNow, func(t *testing.T, w *testWorld) {
			sig := w.sigs[www][0].Clone()
			sig.Data.(*dnswire.RRSIGData).SignatureBytes()[3] ^= 0x80
			w.sigs[www] = []dnswire.RR{sig}
		}, Bogus},
		{"rdata changed under unchanged RRSIG", testNow, func(t *testing.T, w *testWorld) {
			w.records[www] = []dnswire.RR{w.records[www][0].Clone()}
			w.records[www][0].Data = &dnswire.AData{Addr: netip.MustParseAddr("6.6.6.6")}
		}, Bogus},
		{"DNSKEY RRset re-keyed without a new DS", testNow, func(t *testing.T, w *testWorld) {
			evil := DeriveKey(77, "example.com.", true)
			w.add(t, evil, evil.DNSKEY(3600))
		}, Bogus},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := new(SigMemo)
			w := buildWorld(t, true, true)
			anchor := w.records[rrKey(".", dnswire.TypeDNSKEY)]
			prime := NewValidator(w, anchor, testNow)
			prime.Memo = memo
			if res, err := prime.Validate("www.example.com.", dnswire.TypeA); res != Secure {
				t.Fatalf("priming pass: %v (%v)", res, err)
			}
			primed := memo.len()

			tc.tamper(t, w)
			plain := NewValidator(w, anchor, tc.now)
			wantRes, wantErr := plain.Validate("www.example.com.", dnswire.TypeA)
			if wantRes != tc.want {
				t.Fatalf("memo-less validator: %v (%v), want %v", wantRes, wantErr, tc.want)
			}
			memoised := NewValidator(w, anchor, tc.now)
			memoised.Memo = memo
			gotRes, gotErr := memoised.Validate("www.example.com.", dnswire.TypeA)
			if gotRes != wantRes || errText(gotErr) != errText(wantErr) {
				t.Errorf("memoised: %v (%v); memo-less: %v (%v)", gotRes, gotErr, wantRes, wantErr)
			}
			if tc.want != Secure && memo.len() != primed {
				t.Errorf("memo grew from %d to %d entries on a bogus chain", primed, memo.len())
			}
		})
	}
}

// TestSigMemoBounded: the memo never holds more than its cap, however many
// distinct signatures verify.
func TestSigMemoBounded(t *testing.T) {
	m := new(SigMemo)
	var seed [8]byte
	for i := 0; i < 3*sigMemoCap; i++ {
		binary.BigEndian.PutUint64(seed[:], uint64(i))
		id := sha256.Sum256(seed[:])
		m.add(id)
		if !m.seen(id) {
			t.Fatalf("entry %d not found right after insertion", i)
		}
		if i%4096 == 0 && m.len() > sigMemoCap {
			t.Fatalf("memo holds %d entries after %d inserts, cap %d", m.len(), i+1, sigMemoCap)
		}
	}
	if n := m.len(); n > sigMemoCap || n == 0 {
		t.Errorf("memo holds %d entries, want 1..%d", n, sigMemoCap)
	}
}

// rrFromRData decodes rdata as the RDATA of one record of type typ through
// the dnswire message decoder — the path a signature or key arriving from
// the network takes.
func rrFromRData(typ dnswire.Type, rdata []byte) (dnswire.RR, bool) {
	if len(rdata) > 0xffff {
		return dnswire.RR{}, false
	}
	wire := []byte{0, 0, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0} // response header, ANCOUNT=1
	wire = append(wire, 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0)
	wire = binary.BigEndian.AppendUint16(wire, uint16(typ))
	wire = binary.BigEndian.AppendUint16(wire, uint16(dnswire.ClassINET))
	wire = binary.BigEndian.AppendUint32(wire, 3600)
	wire = binary.BigEndian.AppendUint16(wire, uint16(len(rdata)))
	wire = append(wire, rdata...)
	m := new(dnswire.Message)
	if err := dnswire.UnpackInto(m, wire); err != nil || len(m.Answer) != 1 {
		return dnswire.RR{}, false
	}
	return m.Answer[0], true
}

// FuzzVerifyRRSIG feeds the signature path RRSIG and DNSKEY RDATA straight
// from the fuzzer: nothing may panic, and the process memo — seeded by the
// fixture's signer and dirtied by every earlier input — must agree with the
// plain verifier on every input, on first sight and on the repeat.
func FuzzVerifyRRSIG(f *testing.F) {
	fx := newMemoFixture(f)
	rdataOf := func(rr dnswire.RR) []byte {
		_, _, rdata, err := splitRR(rr)
		if err != nil {
			f.Fatal(err)
		}
		return rdata
	}
	// The fixture's key is at www's parent; the decoded records are owned
	// by example.com., which is the signer name, so the good pair verifies.
	sigRD, keyRD := rdataOf(fx.sig), rdataOf(fx.key.DNSKEY(3600))
	f.Add(sigRD, keyRD)
	f.Add(sigRD[:len(sigRD)-1], keyRD)
	f.Add(sigRD, keyRD[:len(keyRD)-1])
	bad := append([]byte(nil), sigRD...)
	bad[len(bad)-5] ^= 0x40
	f.Add(bad, keyRD)
	f.Add([]byte{}, []byte{})
	if sig, ok := rrFromRData(dnswire.TypeRRSIG, sigRD); !ok {
		f.Fatal("seed RRSIG does not decode")
	} else if key, ok := rrFromRData(dnswire.TypeDNSKEY, keyRD); !ok {
		f.Fatal("seed DNSKEY does not decode")
	} else if err := VerifyRRSIG(sig, fx.rrs, key, testNow); err != nil {
		f.Fatalf("decoded seed pair does not verify: %v", err)
	}
	f.Fuzz(func(t *testing.T, sigRData, keyRData []byte) {
		sig, ok := rrFromRData(dnswire.TypeRRSIG, sigRData)
		if !ok {
			return
		}
		key, ok := rrFromRData(dnswire.TypeDNSKEY, keyRData)
		if !ok {
			return
		}
		plain := VerifyRRSIG(sig, fx.rrs, key, testNow)
		for pass := 1; pass <= 2; pass++ {
			if got := processMemo.Verify(sig, fx.rrs, key, testNow); errText(got) != errText(plain) {
				t.Fatalf("memoised pass %d: %v, plain: %v", pass, got, plain)
			}
		}
	})
}

// FuzzDNSKEYDS hands the key side of the chain DNSKEY RDATA straight from
// the fuzzer — any flags, protocol and algorithm, key bytes of any length:
// DS construction, the key tag, public-key decoding and verification must
// not panic, the process memo's verdict (the fixture's signature is seeded
// in it) must be the plain one, and the fixture's signature must never
// verify under a key that is not a point on P-256.
func FuzzDNSKEYDS(f *testing.F) {
	fx := newMemoFixture(f)
	good := fx.key.DNSKEY(3600).Data.(*dnswire.DNSKEYData)
	ksk := DeriveKey(41, "example.com.", true).DNSKEY(3600).Data.(*dnswire.DNSKEYData)
	offCurve := append([]byte(nil), good.PublicKey...)
	offCurve[63] ^= 0x01
	f.Add(good.Flags, good.Protocol, good.Algorithm, good.PublicKey)
	f.Add(ksk.Flags, ksk.Protocol, ksk.Algorithm, ksk.PublicKey)
	f.Add(good.Flags, good.Protocol, good.Algorithm, good.PublicKey[:63])
	f.Add(good.Flags, good.Protocol, good.Algorithm, append(good.PublicKey[:64:64], 0))
	f.Add(good.Flags, good.Protocol, good.Algorithm, offCurve)
	f.Add(good.Flags, good.Protocol, uint8(8), good.PublicKey)
	f.Add(uint16(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, flags uint16, protocol, algorithm uint8, key []byte) {
		data := &dnswire.DNSKEYData{Flags: flags, Protocol: protocol, Algorithm: algorithm, PublicKey: key}
		dnskey := dnswire.RR{Name: "example.com.", Type: dnswire.TypeDNSKEY, Class: dnswire.ClassINET, TTL: 3600, Data: data}
		ref, refErr := refMakeDS(dnskey, 3600)
		ds, err := makeDS(dnskey, 3600)
		if errText(err) != errText(refErr) {
			t.Fatalf("makeDS: %v; reference: %v", err, refErr)
		}
		if err == nil {
			if !bytes.Equal(ds.Data.(*dnswire.DSData).Digest, ref.Data.(*dnswire.DSData).Digest) {
				t.Fatal("makeDS digest differs from the reference")
			}
			if ds.Data.(*dnswire.DSData).KeyTag != data.KeyTag() {
				t.Fatal("DS carries another key tag than its DNSKEY")
			}
			if !matchesDS(dnskey, ref) {
				t.Fatal("DNSKEY does not match the reference DS made from it")
			}
			other := *ref.Data.(*dnswire.DSData)
			other.Digest = append([]byte(nil), other.Digest...)
			other.Digest[len(key)%sha256.Size] ^= 1
			if matchesDS(dnskey, dnswire.RR{Name: ref.Name, Type: dnswire.TypeDS, Class: ref.Class, Data: &other}) {
				t.Fatal("DNSKEY matches a DS whose digest differs in one bit")
			}
		}
		// crypto/ecdh is the independent judge of what a P-256 point is.
		_, pointErr := ecdh.P256().NewPublicKey(append([]byte{4}, key...))
		if _, err := decodePublicKey(key); (err == nil) != (pointErr == nil) {
			t.Fatalf("decodePublicKey: %v; crypto/ecdh: %v", err, pointErr)
		}
		plain := VerifyRRSIG(fx.sig, fx.rrs, dnskey, testNow)
		if plain == nil && pointErr != nil {
			t.Fatalf("signature verified under a %d-byte key that is no curve point", len(key))
		}
		for pass := 1; pass <= 2; pass++ {
			if got := processMemo.Verify(fx.sig, fx.rrs, dnskey, testNow); errText(got) != errText(plain) {
				t.Fatalf("memoised pass %d: %v, plain: %v", pass, got, plain)
			}
		}
	})
}
