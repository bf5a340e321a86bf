package dnssec

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/testrace"
)

// p256Key loads a 32-byte big-endian scalar as a crypto/ecdsa private key
// through crypto/ecdh, which computes its public key: the tests' reference
// for what the package derives from a scalar and for crypto/ecdsa's
// signature. It fails for zero and for values at or above the group order.
func p256Key(scalar []byte) (*ecdsa.PrivateKey, error) {
	priv, err := ecdh.P256().NewPrivateKey(scalar)
	if err != nil {
		return nil, err
	}
	pub := priv.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(pub[1:33]),
			Y:     new(big.Int).SetBytes(pub[33:]),
		},
		D: new(big.Int).SetBytes(scalar),
	}, nil
}

// publicXY serialises a P-256 public key as X‖Y (RFC 6605 §4).
func publicXY(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 64)
	pub.X.FillBytes(out[:32])
	pub.Y.FillBytes(out[32:])
	return out
}

// refScalar is DeriveKey's private scalar built the long way: SHA-256 over
// "dnssec-key" ‖ seed ‖ flags ‖ canonical zone ‖ counter in a fresh slice,
// the counter moving on until crypto/ecdsa's reference accepts the digest.
func refScalar(t testing.TB, seed int64, zone string, ksk bool) ([32]byte, *ecdsa.PrivateKey) {
	t.Helper()
	flags := uint16(dnswire.DNSKEYFlagZone)
	if ksk {
		flags |= dnswire.DNSKEYFlagSEP
	}
	for counter := uint32(0); counter < 8; counter++ {
		var in []byte
		in = append(in, "dnssec-key"...)
		in = binary.BigEndian.AppendUint64(in, uint64(seed))
		in = binary.BigEndian.AppendUint16(in, flags)
		in = append(in, dnswire.CanonicalName(zone)...)
		in = binary.BigEndian.AppendUint32(in, counter)
		x := sha256.Sum256(in)
		if priv, err := p256Key(x[:]); err == nil {
			return x, priv
		}
	}
	t.Fatalf("no valid scalar for (%d, %q, %v) in 8 draws", seed, zone, ksk)
	return [32]byte{}, nil
}

// TestDerivedKeyBytesPinned: a derived key's DNSKEY public key, DS digest
// and key tag are the bytes earlier versions of the package derived, so a
// change to the derivation (the hash input, the counter, the encoding of
// the point, the DS's canonical form) fails here and not only in a golden
// digest downstream. The vectors include the root's two keys. No zone is
// known whose first draw is rejected (the chance is under 2⁻³² a draw), so
// the counter's move is held by refScalar's loop alone. Then, over 2 000
// keys, each public key equals crypto/ecdh's through the crypto/ecdsa
// reference, each scalar the reference derivation's, and each DS digest
// the reference DS's.
func TestDerivedKeyBytesPinned(t *testing.T) {
	for _, v := range []struct {
		seed    int64
		zone    string
		ksk     bool
		pub, ds string
		tag     uint16
	}{
		{1, ".", true,
			"37b597b973bb45eb61dccb065ac952035135f6e148eb25636e8c818434574c2ca5a2705f837ad38bc5ac6a8c8662b9355bc8879289fb21cb2d83349c2d94190f",
			"7a483ba2358df953b5b3882b8278457f056a2ca86682b766555489131555ef9e", 41611},
		{1, ".", false,
			"55687f4f08487fbd6e64505fb19ba73a52202e0202a56dcd43d6aca4da963301f50d4bc0cb91e3a1ea4843e57d865342b2b14e54f1d649225c6cff5932bd7bcd",
			"d0f80c6cd0a594d569b09a51e06cbb50764108a58992795a684b89af630cb3c3", 40021},
		{42, "example.com.", true,
			"540ea381d6be6ed12bb624a766a0b49df1d91f68551c0e2e6e7fbb561e3addb58ed21e48e814c0079e8aad93b4c064966ce7655629dc71c40d7fbbc846887150",
			"4fa705872c28ebff6950442309cd8fcb7c11e3b9c4a359997dbcf6081d42f6cb", 61639},
		{20240101, "cloudflare.net.", false,
			"f47d8c88724f8212b0ea556b4fd8b093e1fffa3576d5dcd6a01485e7928b519a02bf4e4d34f9ad669e5afabf68eb713ce1c15d00d05c2d3d39cf9882d6d37641",
			"1e4e4eba9a26492c4a5bd666c1c11441dde365c9f55b36b951876be22e7a10b9", 48301},
		{-7, "xn--bcher-kva.example.", true,
			"079b88acb2281035b40bfd080fcfea88fb6490a580f27a7b2e13751e5b6d423ed8149e121bef3b7755831506a9f86e893a904026655af47cf623506694e5774e",
			"3598ffe63f982523f40eec18c92da4cdfec668c5fcde59da9d242605e5e7acc4", 16987},
	} {
		k := DeriveKey(v.seed, v.zone, v.ksk)
		ds, err := k.DS(0)
		if err != nil {
			t.Fatalf("(%d, %q, %v): %v", v.seed, v.zone, v.ksk, err)
		}
		pub := k.DNSKEY(0).Data.(*dnswire.DNSKEYData).PublicKey
		if got := hex.EncodeToString(pub); got != v.pub {
			t.Errorf("(%d, %q, %v): public key %s\nwant %s", v.seed, v.zone, v.ksk, got, v.pub)
		}
		if got := hex.EncodeToString(ds.Data.(*dnswire.DSData).Digest); got != v.ds {
			t.Errorf("(%d, %q, %v): DS digest %s\nwant %s", v.seed, v.zone, v.ksk, got, v.ds)
		}
		if k.KeyTag() != v.tag || ds.Data.(*dnswire.DSData).KeyTag != v.tag {
			t.Errorf("(%d, %q, %v): key tag %d, DS key tag %d, want %d", v.seed, v.zone, v.ksk,
				k.KeyTag(), ds.Data.(*dnswire.DSData).KeyTag, v.tag)
		}
	}
	for i := range 2000 {
		seed, zone, ksk := int64(i)*7919-3000, fmt.Sprintf("z%d.example%d.", i, i%13), i%3 == 0
		k := DeriveKey(seed, zone, ksk)
		x, ref := refScalar(t, seed, zone, ksk)
		if k.d != x {
			t.Fatalf("(%d, %q, %v): scalar %x, reference %x", seed, zone, ksk, k.d, x)
		}
		dnskey := k.DNSKEY(3600)
		if pub := dnskey.Data.(*dnswire.DNSKEYData).PublicKey; !bytes.Equal(pub, publicXY(&ref.PublicKey)) {
			t.Fatalf("(%d, %q, %v): public key %x, crypto/ecdh's %x", seed, zone, ksk, pub, publicXY(&ref.PublicKey))
		}
		ds, err := k.DS(3600)
		if err != nil {
			t.Fatal(err)
		}
		refDS, err := refMakeDS(dnskey, 3600)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ds.Data.(*dnswire.DSData).Digest, refDS.Data.(*dnswire.DSData).Digest) || !matchesDS(dnskey, ds) {
			t.Fatalf("(%d, %q, %v): DS %v, reference %v", seed, zone, ksk, ds, refDS)
		}
	}
}

// TestDeriveKeyAllocs pins what a zone key costs: the KeyPair, which holds
// its scalar, public key, key tag and DNSKEY and DS RDATA, and what
// crypto/ecdh's NewPrivateKey allocates computing the public key; the hash
// input is a stack array. 8 on amd64, ceiling 9 (22 while the key was a
// crypto/ecdsa key converted through big.Int and its RDATA was encoded on
// first use).
func TestDeriveKeyAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 9
	if got := testing.AllocsPerRun(200, func() {
		k := DeriveKey(7, "example.com.", true)
		k.DNSKEY(3600)
		if _, err := k.DS(3600); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("%v allocations per DeriveKey + DNSKEY + DS, ceiling %d", got, ceiling)
	} else {
		t.Logf("%v allocations per DeriveKey + DNSKEY + DS", got)
	}
}
