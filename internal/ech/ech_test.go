package ech

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testrace"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestConfigListRoundTrip(t *testing.T) {
	kp1, err := generateKeyPair(testRNG(1), 7, "cloudflare-ech.com")
	if err != nil {
		t.Fatal(err)
	}
	kp2, err := generateKeyPair(testRNG(2), 8, "provider.example")
	if err != nil {
		t.Fatal(err)
	}
	list := marshalList([]Config{kp1.Config, kp2.Config})
	got, err := UnmarshalList(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d configs", len(got))
	}
	want := []Config{kp1.Config, kp2.Config}
	for i := range want {
		// Normalise nil-vs-empty for optional fields.
		if got[i].Extensions == nil {
			got[i].Extensions = []byte{}
		}
		w := want[i].Clone()
		if w.Extensions == nil {
			w.Extensions = []byte{}
		}
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("config %d mismatch:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0},
		{0, 0},                   // empty list
		{0, 5, 1, 2},             // length overruns
		{0, 4, 0xfe, 0x0d, 0, 9}, // inner length overruns
	}
	for _, b := range bad {
		if _, err := UnmarshalList(b); err == nil {
			t.Errorf("UnmarshalList(%x) accepted garbage", b)
		}
	}
}

func TestUnmarshalSkipsUnknownVersion(t *testing.T) {
	kp, _ := generateKeyPair(testRNG(3), 1, "pub.example")
	known := kp.Config.Marshal()
	unknown := []byte{0xfe, 0x0a, 0x00, 0x02, 0xaa, 0xbb} // version fe0a, 2 bytes
	inner := append(unknown, known...)
	list := append([]byte{byte(len(inner) >> 8), byte(len(inner))}, inner...)
	got, err := UnmarshalList(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d configs", len(got))
	}
	if got[0].Version == DraftVersion || got[1].Version != DraftVersion {
		t.Errorf("version handling wrong: %+v", got)
	}
	sel, err := SelectConfig(got)
	if err != nil {
		t.Fatal(err)
	}
	if sel.ConfigID != 1 {
		t.Errorf("SelectConfig picked %d", sel.ConfigID)
	}
}

func TestSelectConfigNoSupported(t *testing.T) {
	if _, err := SelectConfig([]Config{{Version: 0x1234}}); err != ErrNoSupported {
		t.Errorf("err = %v", err)
	}
	// Right version, unsupported suite.
	cfg := Config{Version: DraftVersion, KEM: KEMX25519SHA256,
		CipherSuites: []CipherSuite{{KDF: 2, AEAD: 3}}}
	if _, err := SelectConfig([]Config{cfg}); err != ErrNoSupported {
		t.Errorf("err = %v", err)
	}
}

// TestSelectInPlaceAliasesTheList: the in-place selection picks what
// SelectConfig does from the same list, its slices point into the list,
// and it allocates nothing.
func TestSelectInPlaceAliasesTheList(t *testing.T) {
	kp1, _ := generateKeyPair(testRNG(1), 7, "cloudflare-ech.com")
	kp2, _ := generateKeyPair(testRNG(2), 8, "provider.example")
	unsupported := kp1.Config.Clone()
	unsupported.CipherSuites = []CipherSuite{{KDF: 2, AEAD: 3}}
	list := marshalList([]Config{unsupported, kp2.Config, kp1.Config})
	ref, err := SelectInPlace(list)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfigID != 8 || !bytes.Equal(ref.PublicKey, kp2.Config.PublicKey) || string(ref.PublicName) != "provider.example" {
		t.Fatalf("picked %d %x %q, want config 8 of provider.example", ref.ConfigID, ref.PublicKey, ref.PublicName)
	}
	at := func(b []byte) int { return bytes.Index(list, b) }
	if &list[at(ref.PublicKey)] != &ref.PublicKey[0] || &list[at(ref.PublicName)] != &ref.PublicName[0] {
		t.Error("selection copied out of the list")
	}
	if testrace.Enabled {
		return // the race detector's instrumentation allocates
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = SelectInPlace(list) }); n != 0 {
		t.Errorf("SelectInPlace allocated %v times", n)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	kp, err := generateKeyPair(testRNG(4), 9, "cover.example")
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte("outer client hello")
	plaintext := []byte("inner client hello with sni=secret.example")
	enc, ct, err := Seal(testRNG(5), kp.Config, aad, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kp.Open(enc, aad, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Errorf("Open = %q", got)
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	kp1, _ := generateKeyPair(testRNG(6), 1, "pub.example")
	kp2, _ := generateKeyPair(testRNG(7), 1, "pub.example")
	enc, ct, err := Seal(testRNG(8), kp1.Config, []byte("aad"), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kp2.Open(enc, []byte("aad"), ct); err == nil {
		t.Error("Open succeeded with wrong key")
	}
}

func TestOpenWrongAADFails(t *testing.T) {
	kp, _ := generateKeyPair(testRNG(9), 1, "pub.example")
	enc, ct, err := Seal(testRNG(10), kp.Config, []byte("aad-a"), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kp.Open(enc, []byte("aad-b"), ct); err == nil {
		t.Error("Open succeeded with wrong AAD")
	}
}

func TestSealTamperedCiphertextFails(t *testing.T) {
	kp, _ := generateKeyPair(testRNG(11), 1, "pub.example")
	enc, ct, err := Seal(testRNG(12), kp.Config, nil, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 1
	if _, err := kp.Open(enc, nil, ct); err == nil {
		t.Error("Open accepted tampered ciphertext")
	}
}

func TestHKDFVectors(t *testing.T) {
	// RFC 5869 test case 1.
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}
	info := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9}
	prk := hkdfExtract(salt, ikm)
	wantPRK := []byte{
		0x07, 0x77, 0x09, 0x36, 0x2c, 0x2e, 0x32, 0xdf, 0x0d, 0xdc, 0x3f, 0x0d, 0xc4, 0x7b,
		0xba, 0x63, 0x90, 0xb6, 0xc7, 0x3b, 0xb5, 0x0f, 0x9c, 0x31, 0x22, 0xec, 0x84, 0x4a,
		0xd7, 0xc2, 0xb3, 0xe5}
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("hkdfExtract = %x", prk)
	}
	okm := hkdfExpand(prk, info, 42)
	wantOKM := []byte{
		0x3c, 0xb2, 0x5f, 0x25, 0xfa, 0xac, 0xd5, 0x7a, 0x90, 0x43, 0x4f, 0x64, 0xd0, 0x36,
		0x2f, 0x2a, 0x2d, 0x2d, 0x0a, 0x90, 0xcf, 0x1a, 0x5a, 0x4c, 0x5d, 0xb0, 0x2d, 0x56,
		0xec, 0xc4, 0xc5, 0xbf, 0x34, 0x00, 0x72, 0x08, 0xd5, 0xb8, 0x87, 0x18, 0x58, 0x65}
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("hkdfExpand = %x", okm)
	}
}

func TestKeyManagerRotation(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := NewKeyManager(testRNG(13), "cloudflare-ech.com", time.Hour, 2*time.Hour, start)
	if err != nil {
		t.Fatal(err)
	}
	cfg0 := km.CurrentConfig(start)
	// Within the period: stable.
	cfg0b := km.CurrentConfig(start.Add(30 * time.Minute))
	if cfg0.ConfigID != cfg0b.ConfigID || !bytes.Equal(cfg0.PublicKey, cfg0b.PublicKey) {
		t.Error("key rotated before period elapsed")
	}
	// After the period: rotated.
	cfg1 := km.CurrentConfig(start.Add(61 * time.Minute))
	if bytes.Equal(cfg0.PublicKey, cfg1.PublicKey) {
		t.Error("key not rotated after period")
	}
	// Long gap: advances multiple epochs without error.
	cfg5 := km.CurrentConfig(start.Add(5*time.Hour + time.Minute))
	if bytes.Equal(cfg1.PublicKey, cfg5.PublicKey) {
		t.Error("key not rotated across long gap")
	}
}

func TestKeyManagerOpenOldKeyWithinRetention(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := NewKeyManager(testRNG(14), "cover.example", time.Hour, 2*time.Hour, start)
	if err != nil {
		t.Fatal(err)
	}
	oldCfg := km.CurrentConfig(start)
	// Client sealed against the old config; server has rotated once.
	enc, ct, err := Seal(testRNG(15), oldCfg, []byte("aad"), []byte("inner"))
	if err != nil {
		t.Fatal(err)
	}
	at := start.Add(90 * time.Minute) // one rotation later, within retention
	if got, err := km.Open(at, oldCfg.ConfigID, enc, []byte("aad"), ct); err != nil || string(got) != "inner" {
		t.Errorf("Open with retained key: %q, %v", got, err)
	}
	// Past retention the old key is gone.
	late := start.Add(4 * time.Hour)
	if _, err := km.Open(late, oldCfg.ConfigID, enc, []byte("aad"), ct); err == nil {
		t.Error("Open succeeded past retention window")
	}
}

func TestKeyManagerRetryConfigs(t *testing.T) {
	start := time.Unix(0, 0)
	km, err := NewKeyManager(testRNG(16), "cover.example", time.Hour, 2*time.Hour, start)
	if err != nil {
		t.Fatal(err)
	}
	retry := km.RetryConfigs(start)
	configs, err := UnmarshalList(retry)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectConfig(configs)
	if err != nil {
		t.Fatal(err)
	}
	// A client using the retry config must succeed.
	enc, ct, err := Seal(testRNG(17), sel, nil, []byte("retry inner"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := km.Open(start, sel.ConfigID, enc, nil, ct); err != nil || string(got) != "retry inner" {
		t.Errorf("retry round trip: %q, %v", got, err)
	}
}

func TestKeyManagerKeyCount(t *testing.T) {
	start := time.Unix(0, 0)
	km, _ := NewKeyManager(testRNG(18), "x.example", time.Hour, 2*time.Hour, start)
	if n := km.keyCount(start); n != 3 {
		t.Errorf("keyCount = %d, want 3 (current + 2h retention at 1h period)", n)
	}
}

func TestKeyManagerTimeTravel(t *testing.T) {
	// The virtual clock may be rewound (e.g. replaying the July hourly
	// experiment after a full campaign); keys must be reproducible.
	start := time.Unix(0, 0)
	km, _ := NewKeyManager(testRNG(21), "x.example", time.Hour, 2*time.Hour, start)
	july := start.Add(100 * time.Hour)
	march := start.Add(5000 * time.Hour)
	a := km.CurrentConfig(july)
	_ = km.CurrentConfig(march)
	b := km.CurrentConfig(july)
	if !bytes.Equal(a.PublicKey, b.PublicKey) || a.ConfigID != b.ConfigID {
		t.Error("rewinding the clock changed the epoch key")
	}
}

// TestConfigListMarshalsOncePerEpoch: the advertised list is a function of
// the epoch alone, so an epoch's second caller gets the first one's bytes —
// across a rotation, after a rewind, and from several goroutines at once.
func TestConfigListMarshalsOncePerEpoch(t *testing.T) {
	start := time.Unix(0, 0)
	km, _ := NewKeyManager(testRNG(22), "x.example", time.Hour, 2*time.Hour, start)
	first := km.ConfigList(start)
	if want := marshalList([]Config{km.CurrentConfig(start)}); !bytes.Equal(first, want) {
		t.Fatalf("ConfigList = %x, want the marshalled current config %x", first, want)
	}
	later := start.Add(59 * time.Minute)
	if again := km.ConfigList(later); &again[0] != &first[0] || len(again) != len(first) {
		t.Error("second call in an epoch marshalled the list again")
	}
	if !testrace.Enabled {
		if n := testing.AllocsPerRun(100, func() { km.ConfigList(later) }); n != 0 {
			t.Errorf("ConfigList in a known epoch: %v allocations, want 0", n)
		}
	}
	next := km.ConfigList(start.Add(time.Hour))
	if bytes.Equal(next, first) {
		t.Error("the next epoch advertises the same list")
	}
	if back := km.ConfigList(start); &back[0] != &first[0] {
		t.Error("moving the clock back did not return the earlier epoch's list")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				at := start.Add(time.Duration(i%8) * 30 * time.Minute)
				if want := marshalList([]Config{km.CurrentConfig(at)}); !bytes.Equal(km.ConfigList(at), want) {
					t.Errorf("ConfigList at +%v differs from the marshalled current config", at.Sub(start))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Property: Seal/Open round-trips for arbitrary payloads and AADs.
func TestQuickSealOpen(t *testing.T) {
	kp, err := generateKeyPair(testRNG(19), 1, "pub.example")
	if err != nil {
		t.Fatal(err)
	}
	f := func(plaintext, aad []byte, seed int64) bool {
		enc, ct, err := Seal(testRNG(seed), kp.Config, aad, plaintext)
		if err != nil {
			return false
		}
		got, err := kp.Open(enc, aad, ct)
		return err == nil && bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: marshalled config lists always reparse to the same structure.
func TestQuickConfigListRoundTrip(t *testing.T) {
	f := func(seed int64, nConfigs uint8) bool {
		rng := testRNG(seed)
		n := int(nConfigs%3) + 1
		var configs []Config
		for i := 0; i < n; i++ {
			kp, err := generateKeyPair(rng, uint8(i), "pub.example")
			if err != nil {
				return false
			}
			configs = append(configs, kp.Config)
		}
		list := marshalList(configs)
		got, err := UnmarshalList(list)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].ConfigID != configs[i].ConfigID ||
				!bytes.Equal(got[i].PublicKey, configs[i].PublicKey) ||
				got[i].PublicName != configs[i].PublicName {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
