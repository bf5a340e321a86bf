package dnswire

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countingSigner returns sig for the digest it expects, and counts the
// times it has run.
type countingSigner struct {
	sig    []byte
	digest [32]byte
	calls  atomic.Int32
}

func (s *countingSigner) SignDigest(digest [32]byte) []byte {
	s.calls.Add(1)
	if digest != s.digest {
		return nil
	}
	return bytes.Clone(s.sig)
}

// deferredRRSIG returns an RRSIG whose signature is left to its first read,
// and the count of the times its signer has run.
func deferredRRSIG(sig []byte) (*RRSIGData, *atomic.Int32) {
	s := &countingSigner{sig: sig, digest: [32]byte{0: 0xd1, 31: 0x9e}}
	d := testRRSIG(nil)
	d.DeferSignature(s, s.digest)
	return d, &s.calls
}

// testRRSIG is the fixed-field part every record here shares.
func testRRSIG(sig []byte) *RRSIGData {
	return &RRSIGData{TypeCovered: TypeHTTPS, Algorithm: 13, Labels: 2, OriginalTTL: 300,
		Expiration: 1700000000, Inception: 1690000000, KeyTag: 4242, SignerName: "a.com.", Signature: sig}
}

func rrsigRR(d *RRSIGData) RR {
	return RR{Name: "a.com.", Type: TypeRRSIG, Class: ClassINET, TTL: 300, Data: d}
}

// TestDeferredSignatureRunsOnce: packing, Clone, String and SignatureBytes
// each give the bytes an eager record gives, and between them run the
// signer once — also when eight goroutines read one record at the same
// time, which `make race` runs under the race detector.
func TestDeferredSignatureRunsOnce(t *testing.T) {
	sig := bytes.Repeat([]byte{0xef, 0x01}, 32)
	eager := testRRSIG(sig)
	wantWire, err := PackRR(nil, rrsigRR(eager))
	if err != nil {
		t.Fatal(err)
	}
	type read struct {
		name string
		ok   func(*RRSIGData) bool // reports whether the read saw the eager record's bytes
	}
	reads := []read{
		{"pack", func(d *RRSIGData) bool {
			wire, err := PackRR(nil, rrsigRR(d))
			return err == nil && bytes.Equal(wire, wantWire)
		}},
		{"Clone", func(d *RRSIGData) bool { return reflect.DeepEqual(rrsigRR(d).Clone().Data, eager) }},
		{"String", func(d *RRSIGData) bool { return d.String() == eager.String() }},
		{"SignatureBytes", func(d *RRSIGData) bool { return bytes.Equal(d.SignatureBytes(), sig) }},
	}
	run := func(name string, reads []read) {
		t.Run(name, func(t *testing.T) {
			d, calls := deferredRRSIG(sig)
			if n := calls.Load(); n != 0 {
				t.Fatalf("signer ran %d times before anything read the signature", n)
			}
			var wg sync.WaitGroup
			for i := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if r := reads[i%len(reads)]; !r.ok(d) {
						t.Errorf("goroutine %d: %s read other bytes than the eager record's", i, r.name)
					}
				}()
			}
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Errorf("signer ran %d times, want once", n)
			}
		})
	}
	for _, r := range reads {
		run(r.name, []read{r})
	}
	run("all four at once", reads)
}

// TestUnpackIntoClearsDeferredSignature: a decode into a recycled RRSIG slot
// whose signature was deferred and never read takes the wire bytes, leaves
// nothing of the deferred state behind — no signer, so a pooled RRSIG never
// keeps a zone key alive, and no digest — and never runs the signer.
func TestUnpackIntoClearsDeferredSignature(t *testing.T) {
	sig := bytes.Repeat([]byte{0x5a}, 64)
	m := NewQuery(7, "a.com", TypeHTTPS, true).Reply()
	m.Answer = append(m.Answer, rrsigRR(testRRSIG(sig)))
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	dirty := new(Message)
	if err := UnpackInto(dirty, wire); err != nil {
		t.Fatal(err)
	}
	slot, calls := deferredRRSIG(bytes.Repeat([]byte{0xef}, 64))
	dirty.Answer[0].Data = slot
	if err := UnpackInto(dirty, wire); err != nil {
		t.Fatal(err)
	}
	if dirty.Answer[0].Data != RData(slot) {
		t.Fatal("the decode did not reuse the RRSIG slot")
	}
	if !reflect.DeepEqual(slot, fresh.Answer[0].Data) {
		t.Errorf("decoded into a deferred slot: %+v, a fresh decode: %+v", slot, fresh.Answer[0].Data)
	}
	if !bytes.Equal(slot.SignatureBytes(), sig) {
		t.Errorf("signature %x, want the wire's %x", slot.SignatureBytes(), sig)
	}
	if again, err := dirty.Pack(); err != nil || !bytes.Equal(again, wire) {
		t.Errorf("re-pack = %x (%v), want %x", again, err, wire)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("the slot's signer ran %d times over decoded bytes", n)
	}
	if slot.deferred || slot.signer != nil || slot.digest != ([32]byte{}) {
		t.Errorf("the recycled slot kept deferred state: deferred %v, signer %v, digest %x",
			slot.deferred, slot.signer, slot.digest)
	}
}
