package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/asn1"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/testrace"
)

// TestSignRFC6979Vectors: the signer reproduces the P-256/SHA-256 vectors
// of RFC 6979 §A.2.5 ("sample", "test") as the r‖s of RFC 6605, and the
// vector crypto/ecdsa's tests bruteforced so that the first nonce
// candidate is rejected ("wv[vnX"), which runs step h's K/V update.
func TestSignRFC6979Vectors(t *testing.T) {
	priv := rfc6979Key(t)
	for _, v := range []struct{ msg, r, s string }{
		{"sample",
			"EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716",
			"F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"},
		{"test",
			"F1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367",
			"019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083"},
		{"wv[vnX",
			"EFD9073B652E76DA1B5A019C0E4A2E3FA529B035A6ABB91EF67F0ED7A1F21234",
			"3DB4706C9D9F4A4FE13BB5E08EF0FAB53A57DBAB2061C83A35FA411C68D2BA33"},
	} {
		got, err := signDigest(priv, sha256.Sum256([]byte(v.msg)))
		if err != nil {
			t.Fatal(err)
		}
		if want := v.r + v.s; hex.EncodeToString(got) != strings.ToLower(want) {
			t.Errorf("%q: r‖s = %X\nwant     %s", v.msg, got, want)
		}
	}
}

// stdlibSign is crypto/ecdsa's RFC 6979 signature over digest, handed no
// random source, as the fixed-width r‖s of RFC 6605.
func stdlibSign(t testing.TB, priv *ecdsa.PrivateKey, digest [sha256.Size]byte) []byte {
	t.Helper()
	der, err := priv.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	var sig struct{ R, S *big.Int }
	if rest, err := asn1.Unmarshal(der, &sig); err != nil || len(rest) != 0 {
		t.Fatalf("crypto/ecdsa's DER %x: %v", der, err)
	}
	out := make([]byte, 64)
	sig.R.FillBytes(out[:32])
	sig.S.FillBytes(out[32:])
	return out
}

// checkSignMatchesStdlib fails unless signDigest's r‖s under the scalar x
// equals crypto/ecdsa's.
func checkSignMatchesStdlib(t testing.TB, x, digest [sha256.Size]byte) {
	t.Helper()
	got, err := signDigest(x, digest)
	if err != nil {
		t.Fatalf("digest %x: %v", digest, err)
	}
	priv, err := p256Key(x[:])
	if err != nil {
		t.Fatalf("scalar %x: %v", x, err)
	}
	if want := stdlibSign(t, priv, digest); !bytes.Equal(got, want) {
		t.Fatalf("digest %x under key %x:\nr‖s  %x\nwant %x", digest, x, got, want)
	}
}

// TestSignMatchesStdlib: over 2 000 derived keys, each with its own digest,
// the signer's bytes equal crypto/ecdsa's. The first keys sign the digests
// at the edges of the reduction mod n: all 0xff and n itself (both at least
// n), n − 1 and all zero.
func TestSignMatchesStdlib(t *testing.T) {
	var n, nMinus1 [sha256.Size]byte
	p256Order.FillBytes(n[:])
	new(big.Int).Sub(p256Order, big.NewInt(1)).FillBytes(nMinus1[:])
	edges := [][sha256.Size]byte{[sha256.Size]byte(bytes.Repeat([]byte{0xff}, 32)), n, nMinus1, {}}
	for i := range 2000 {
		key := DeriveKey(int64(i), fmt.Sprintf("zone%d.example.", i%97), i%2 == 0)
		digest := sha256.Sum256(fmt.Appendf(nil, "digest-%d", i))
		if i < len(edges) {
			digest = edges[i]
		}
		checkSignMatchesStdlib(t, key.d, digest)
	}
}

// FuzzSignDigest: for any derived key and any digest (a short one is
// zero-padded, a long one cut), the signer's bytes equal crypto/ecdsa's.
func FuzzSignDigest(f *testing.F) {
	f.Add(int64(7), "example.com.", []byte("sample"))
	f.Add(int64(-1), "", bytes.Repeat([]byte{0xff}, 32))
	f.Add(int64(0), "MiXeD.Case.", []byte{})
	f.Add(int64(1<<40), "a.b.c.d.", p256Order.Bytes())
	f.Fuzz(func(t *testing.T, seed int64, zone string, digest []byte) {
		var d [sha256.Size]byte
		copy(d[:], digest)
		checkSignMatchesStdlib(t, DeriveKey(seed, zone, false).d, d)
	})
}

// signAllocCeiling is what one signature may allocate: 16 where P-256's
// order inverse exists, 28 where ModInverse stands in for it (386).
func signAllocCeiling() float64 {
	if p256OrderInverse == nil {
		return 28
	}
	return 16
}

// TestSignAllocs pins what one signature allocates: the r‖s it returns, the
// nonce's 32 bytes, crypto/ecdh's k and k·G, and P-256's order inverse;
// the HMAC-DRBG runs on stack arrays and s on pooled integers. 13 on
// amd64 (64 through crypto/ecdsa's Sign and its DER), 26 on 386.
func TestSignAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ceiling := signAllocCeiling()
	x := DeriveKey(7, "example.com.", false).d
	digest := sha256.Sum256([]byte("sample"))
	if got := testing.AllocsPerRun(200, func() {
		if _, err := signDigest(x, digest); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("%v allocations per signature, ceiling %v", got, ceiling)
	} else {
		t.Logf("%v allocations per signature", got)
	}
}
