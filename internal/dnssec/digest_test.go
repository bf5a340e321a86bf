package dnssec

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/testrace"
)

// TestSignatureAllocBudgets pins what the signature path allocates now that
// every canonical form is built in a pooled buffer and hashed there: nothing
// for a memo hit or a DS match, and 1 for SignRRset before anything reads
// its signature (the RRSIG data, which holds the key and the digest the
// deferred step signs; 2 while a closure held them; the owner's labels are
// counted, not split). Reading the signature runs the ECDSA step,
// signDigest, whose ceiling TestSignAllocs sets: 14 in all on 64-bit (15
// with the closure, 66 while crypto/ecdsa's Sign made it in DER, read into
// r‖s in place; 71 while that DER went through asn1.Unmarshal into two
// big.Ints).
func TestSignatureAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := newMemoFixture(t)
	zsk := f.key.DNSKEY(3600)
	ksk := DeriveKey(41, "example.com.", true)
	kskKey := ksk.DNSKEY(3600)
	ds, err := ksk.DS(3600)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"memo-hit SigMemo.Verify", 0, func() {
			if err := f.memo.Verify(f.sig, f.rrs, zsk, testNow); err != nil {
				t.Fatal(err)
			}
		}},
		{"matchesDS", 0, func() {
			if !matchesDS(kskKey, ds) {
				t.Fatal("the KSK does not match its DS")
			}
		}},
		{"SignRRset, signature unread", 1, func() {
			if _, err := SignRRset(f.key, f.rrs, testInception, testExpiration); err != nil {
				t.Fatal(err)
			}
		}},
		{"SignRRset, signature read", 1 + signAllocCeiling(), func() {
			sig, err := SignRRset(f.key, f.rrs, testInception, testExpiration)
			if err != nil {
				t.Fatal(err)
			}
			if len(sig.Data.(*dnswire.RRSIGData).SignatureBytes()) != 64 {
				t.Fatal("the signature is not 64 bytes")
			}
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(200, c.run); got > c.max {
			t.Errorf("%s: %v allocations per call, budget %v", c.name, got, c.max)
		} else {
			t.Logf("%s: %v allocations per call", c.name, got)
		}
	}
}

// TestConcurrentSignVerifyMatchesSerial signs and verifies eight distinct
// multi-member RRsets (3 to 10 members, so the span array spills for the
// largest) from eight goroutines at once over one memo, all of them
// building their canonical forms in the shared buffer pool. Every digest,
// signature and verdict must equal the serial run's; under -race a buffer
// handed to two callers at once is a reported race.
func TestConcurrentSignVerifyMatchesSerial(t *testing.T) {
	const workers, rounds = 8, 10
	key := DeriveKey(50, "example.com.", false)
	dnskey := key.DNSKEY(3600)
	ksk := DeriveKey(51, "example.com.", true)
	ds, err := ksk.DS(3600)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		digest         [32]byte
		sig            []byte
		good, tampered string
	}
	sets := make([][]dnswire.RR, workers)
	tampered := make([][]dnswire.RR, workers)
	for g := range sets {
		owner := fmt.Sprintf("h%d.example.com.", g)
		for i := range 3 + g {
			sets[g] = append(sets[g], dnswire.RR{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
				Data: &dnswire.AData{Addr: netip.AddrFrom4([4]byte{10, byte(g), 0, byte(i)})}})
		}
		tampered[g] = append([]dnswire.RR{}, sets[g]...)
		tampered[g][0] = dnswire.RR{Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.AData{Addr: netip.AddrFrom4([4]byte{10, byte(g), 9, 9})}}
	}
	run := func(g int, memo *SigMemo) outcome {
		sigRR, err := SignRRset(key, sets[g], testInception, testExpiration)
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		sig := sigRR.Data.(*dnswire.RRSIGData)
		digest, err := signingDigest(sig, sets[g], sig.OriginalTTL)
		if err != nil {
			t.Error(err)
		}
		if !matchesDS(ksk.DNSKEY(3600), ds) {
			t.Error("the KSK does not match its DS")
		}
		return outcome{digest: digest, sig: sig.SignatureBytes(),
			good:     errText(memo.Verify(sigRR, sets[g], dnskey, testNow)),
			tampered: errText(memo.Verify(sigRR, tampered[g], dnskey, testNow))}
	}
	serial := make([]outcome, workers)
	for g := range serial {
		serial[g] = run(g, new(SigMemo))
		if serial[g].good != "<nil>" || serial[g].tampered != ErrBadSignature.Error() {
			t.Fatalf("set %d: serial verdicts %q and %q", g, serial[g].good, serial[g].tampered)
		}
	}
	memo := new(SigMemo)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				got := run(g, memo)
				want := serial[g]
				if got.digest != want.digest || !bytes.Equal(got.sig, want.sig) || got.good != want.good || got.tampered != want.tampered {
					t.Errorf("set %d round %d: digest %x sig %x verdicts %q %q; serial %x %x %q %q", g, round,
						got.digest, got.sig, got.good, got.tampered, want.digest, want.sig, want.good, want.tampered)
				}
			}
		}()
	}
	wg.Wait()
	if n := memo.len(); n != workers {
		t.Errorf("memo holds %d entries, want one per set (%d)", n, workers)
	}
}
