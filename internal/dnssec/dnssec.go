// Package dnssec implements DNSSEC signing and validation (RFC 4033–4035):
// ECDSA-P256 zone keys (RFC 6605), canonical RRset ordering, RRSIG
// generation and verification, DS digests, and a full chain-of-trust
// validator walking from a trust anchor down to the queried RRset.
//
// The validator distinguishes the three outcomes the paper's Table 9 counts:
// Secure (full chain), Insecure (a delegation is provably unsigned — the
// common "missing DS" misconfiguration), and Bogus (signatures present but
// invalid).
//
// Every canonical form the package hashes — an RRSIG's signing input (RFC
// 4034 §3.1.8.1, §6.3) and a DS digest's owner ‖ RDATA (§5.1.4) — is
// appended into one buffer from a pool, hashed there and dropped: members
// are ordered through offset spans into that buffer, never packed into
// slices of their own. So a memo hit and a DS match allocate nothing, and
// a signature costs its RRSIG data and its deferred signing step.
//
// That step is made here, not by crypto/ecdsa: its only deterministic
// signer, PrivateKey.Sign handed no random source, converts the key, builds
// a heap HMAC-DRBG and encodes DER on every call, 64 allocations and half
// of an hourly ECH campaign's objects. signDigest runs the same RFC 6979
// nonce on stack arrays and returns the same bytes in 13. Verification
// stays on crypto/ecdsa.Verify.
//
// The process keeps one SigMemo (ProcessMemo) of signatures known to
// verify: those that passed a full verification and every signature this
// process made, added by the signer the moment it makes one. Every
// signature a simulated world serves is made here, so its validators run a
// hash lookup where they would run ECDSA. ReadCounts tells signs, full
// verifications and memo hits apart.
package dnssec

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
)

// Errors returned by signing and verification.
var (
	ErrNoKey        = errors.New("dnssec: no matching DNSKEY")
	ErrBadSignature = errors.New("dnssec: signature verification failed")
	ErrExpired      = errors.New("dnssec: signature outside validity window")
	ErrEmptyRRset   = errors.New("dnssec: empty RRset")
	ErrMixedRRset   = errors.New("dnssec: RRset members differ in name/type/class")
)

// KeyPair is a DNSSEC signing key for one zone. It caches its public RDATA
// and must not be copied after first use.
type KeyPair struct {
	Zone    string
	Private *ecdsa.PrivateKey
	Flags   uint16 // DNSKEYFlagZone, optionally DNSKEYFlagSEP for a KSK

	// The key's DNSKEY and DS RDATA, encoded on first use. Every record the
	// key hands out shares these two values, so they are read-only.
	once   sync.Once
	dnskey *dnswire.DNSKEYData
	ds     *dnswire.DSData
	dsErr  error
}

func (k *KeyPair) rdata() {
	k.once.Do(func() {
		k.dnskey = &dnswire.DNSKEYData{
			Flags:     k.Flags,
			Protocol:  3,
			Algorithm: dnswire.AlgECDSAP256SHA256,
			PublicKey: encodePublicKey(&k.Private.PublicKey),
		}
		var ds dnswire.RR
		if ds, k.dsErr = makeDS(k.dnskeyRR(0), 0); k.dsErr == nil {
			k.ds = ds.Data.(*dnswire.DSData)
		}
	})
}

func (k *KeyPair) dnskeyRR(ttl uint32) dnswire.RR {
	return dnswire.RR{Name: k.Zone, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassINET, TTL: ttl, Data: k.dnskey}
}

// DeriveKey returns zone's ECDSA-P256 key in the world built from seed: its
// private scalar is SHA-256 over (seed, role, canonical zone, counter), so
// equal inputs give equal keys in any process and nothing else does. ksk
// selects the SEP flag and the key-signing role. The counter moves on only
// when a digest is not a valid scalar (zero, or at least the group order:
// under 2⁻³² per draw).
func DeriveKey(seed int64, zone string, ksk bool) *KeyPair {
	zone = dnswire.CanonicalName(zone)
	flags := uint16(dnswire.DNSKEYFlagZone)
	if ksk {
		flags |= dnswire.DNSKEYFlagSEP
	}
	input := binary.BigEndian.AppendUint64([]byte("dnssec-key"), uint64(seed))
	input = binary.BigEndian.AppendUint16(input, flags)
	input = append(input, zone...)
	for counter := uint32(0); ; counter++ {
		scalar := sha256.Sum256(binary.BigEndian.AppendUint32(input, counter))
		if priv, err := p256Key(scalar[:]); err == nil {
			return &KeyPair{Zone: zone, Private: priv, Flags: flags}
		}
	}
}

// p256Key loads a 32-byte big-endian scalar as an ECDSA private key. It
// fails for zero and for values at or above the group order.
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

// DNSKEY returns the public DNSKEY record for the key.
func (k *KeyPair) DNSKEY(ttl uint32) dnswire.RR {
	k.rdata()
	return k.dnskeyRR(ttl)
}

// KeyTag returns the RFC 4034 key tag of the key's DNSKEY record.
func (k *KeyPair) KeyTag() uint16 {
	k.rdata()
	return k.dnskey.KeyTag()
}

// DS returns the SHA-256 delegation-signer record to be published in the
// parent zone for this (key-signing) key.
func (k *KeyPair) DS(ttl uint32) (dnswire.RR, error) {
	if k.rdata(); k.dsErr != nil {
		return dnswire.RR{}, k.dsErr
	}
	return dnswire.RR{Name: k.Zone, Type: dnswire.TypeDS, Class: dnswire.ClassINET, TTL: ttl, Data: k.ds}, nil
}

// makeDS computes the SHA-256 DS record for a DNSKEY record.
func makeDS(dnskey dnswire.RR, ttl uint32) (dnswire.RR, error) {
	data, digest, err := dsDigest(dnskey)
	if err != nil {
		return dnswire.RR{}, err
	}
	return dnswire.RR{
		Name:  dnskey.Name,
		Type:  dnswire.TypeDS,
		Class: dnswire.ClassINET,
		TTL:   ttl,
		Data: &dnswire.DSData{
			KeyTag:     data.KeyTag(),
			Algorithm:  data.Algorithm,
			DigestType: dnswire.DigestSHA256,
			Digest:     digest[:],
		},
	}, nil
}

// encodePublicKey serialises a P-256 public key as X||Y (RFC 6605 §4).
func encodePublicKey(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 64)
	pub.X.FillBytes(out[:32])
	pub.Y.FillBytes(out[32:])
	return out
}

// decodePublicKey parses an RFC 6605 X||Y public key.
func decodePublicKey(b []byte) (*ecdsa.PublicKey, error) {
	if len(b) != 64 {
		return nil, fmt.Errorf("dnssec: P-256 public key must be 64 bytes, got %d", len(b))
	}
	x := new(big.Int).SetBytes(b[:32])
	y := new(big.Int).SetBytes(b[32:])
	if !elliptic.P256().IsOnCurve(x, y) {
		return nil, fmt.Errorf("dnssec: public key not on P-256")
	}
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, nil
}

// wirePool holds the buffers the canonical forms are built in before they
// are hashed. A hash input is dropped once hashed, so no buffer outlives
// the call that took it.
var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// ownerWireLen is the length of a canonical name's uncompressed wire form:
// one length byte per label plus the root byte, so as long as its dotted
// form and one more, the root alone one byte.
func ownerWireLen(name string) int {
	if name == "." {
		return 1
	}
	return len(name) + 1
}

// fixedLen is the length of a record's type, class, TTL and RDLENGTH.
const fixedLen = 10

// dsDigest returns a DNSKEY record's data and its SHA-256 DS digest: the
// hash of the canonical owner name ‖ RDATA (RFC 4034 §5.1.4).
func dsDigest(dnskey dnswire.RR) (*dnswire.DNSKEYData, [sha256.Size]byte, error) {
	data, ok := dnskey.Data.(*dnswire.DNSKEYData)
	if !ok {
		return nil, [sha256.Size]byte{}, fmt.Errorf("dnssec: record is not a DNSKEY")
	}
	bp := wirePool.Get().(*[]byte)
	defer wirePool.Put(bp)
	buf, err := dnswire.PackRR((*bp)[:0], dnskey)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	*bp = buf
	// Move the RDATA down over the fixed fields, up against the owner.
	n := ownerWireLen(dnswire.CanonicalName(dnskey.Name))
	n += copy(buf[n:], buf[n+fixedLen:])
	return data, sha256.Sum256(buf[:n]), nil
}

// memberSpan locates one packed RRset member in signingDigest's buffer: its
// canonical wire is buf[start:end], its RDATA buf[rdata:end].
type memberSpan struct{ start, rdata, end int }

// signingDigest returns the SHA-256 of an RRSIG's signing input (RFC 4034
// §3.1.8.1): the RRSIG's fields but the signature, then each member's
// canonical owner|type|class|origTTL|rdlen|rdata, members sorted by
// canonical RDATA, duplicates removed (RFC 4034 §6.3). It packs the members
// in the order given into one pooled buffer and sorts spans of it; the
// prefix and the members in canonical order, appended behind them, are
// what it hashes.
func signingDigest(sig *dnswire.RRSIGData, rrs []dnswire.RR, origTTL uint32) ([sha256.Size]byte, error) {
	if len(rrs) == 0 {
		return [sha256.Size]byte{}, ErrEmptyRRset
	}
	bp := wirePool.Get().(*[]byte)
	defer wirePool.Put(bp)
	buf := (*bp)[:0]
	name, typ, class := dnswire.CanonicalName(rrs[0].Name), rrs[0].Type, rrs[0].Class
	rdataOff := ownerWireLen(name) + fixedLen
	var stack [8]memberSpan
	spans := stack[:0]
	for _, rr := range rrs {
		if dnswire.CanonicalName(rr.Name) != name || rr.Type != typ || rr.Class != class {
			return [sha256.Size]byte{}, ErrMixedRRset
		}
		rr.TTL = origTTL
		start := len(buf)
		var err error
		if buf, err = dnswire.PackRR(buf, rr); err != nil {
			return [sha256.Size]byte{}, err
		}
		spans = append(spans, memberSpan{start, start + rdataOff, len(buf)})
	}
	slices.SortFunc(spans, func(a, b memberSpan) int {
		return bytes.Compare(buf[a.rdata:a.end], buf[b.rdata:b.end])
	})
	in := len(buf)
	prefixed, err := sig.AppendSignedPrefix(buf)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	buf = prefixed
	for i, s := range spans {
		if i > 0 && bytes.Equal(buf[s.rdata:s.end], buf[spans[i-1].rdata:spans[i-1].end]) {
			continue
		}
		buf = append(buf, buf[s.start:s.end]...)
	}
	*bp = buf
	return sha256.Sum256(buf[in:]), nil
}

// SignRRset produces an RRSIG record over the RRset with the given key and
// validity window. Every step that can fail runs here: the RRSIG's fixed
// fields and the SHA-256 of the canonical signing input, built and hashed
// in a pooled buffer, so the call allocates the RRSIG data and the
// deferred step's closure and nothing else. The ECDSA step (signDigest, 13
// allocations) waits until something first reads the signature bytes —
// packing the record, Clone, String, or verification (SigMemo.Verify,
// VerifyRRSIG), all through RRSIGData.SignatureBytes — and runs once. RFC
// 6979 makes the bytes a function of the key and the digest alone, so they
// are the same whenever they are made; a record nothing reads never pays
// for them.
func SignRRset(key *KeyPair, rrs []dnswire.RR, inception, expiration time.Time) (dnswire.RR, error) {
	if len(rrs) == 0 {
		return dnswire.RR{}, ErrEmptyRRset
	}
	owner := dnswire.CanonicalName(rrs[0].Name)
	origTTL := rrs[0].TTL
	sig := &dnswire.RRSIGData{
		TypeCovered: rrs[0].Type,
		Algorithm:   dnswire.AlgECDSAP256SHA256,
		Labels:      uint8(dnswire.CountLabels(owner)),
		OriginalTTL: origTTL,
		Expiration:  uint32(expiration.Unix()),
		Inception:   uint32(inception.Unix()),
		KeyTag:      key.KeyTag(),
		SignerName:  key.Zone,
	}
	digest, err := signingDigest(sig, rrs, origTTL)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig.DeferSignature(func() []byte { return key.sign(digest) })
	return dnswire.RR{
		Name:  owner,
		Type:  dnswire.TypeRRSIG,
		Class: rrs[0].Class,
		TTL:   origTTL,
		Data:  sig,
	}, nil
}

// sign is SignRRset's deferred step: k's signature over digest, whose memo
// id it adds to the process memo. A signature k just made verifies under
// k's public key, so a later check of it is a lookup. signDigest fails only
// for a scalar that is no P-256 key, which DeriveKey never returns, or for
// an r or s of zero (chance about 2⁻²⁵⁶); the empty signature it then
// leaves verifies nowhere and is not added.
func (k *KeyPair) sign(digest [sha256.Size]byte) []byte {
	out, err := signDigest(k.Private, digest)
	if err != nil {
		return nil
	}
	processMemo.add(memoID(k.dnskey.PublicKey, out, digest))
	counters.seeds.Add(1)
	return out
}

// p256Order is P-256's group order n.
var p256Order = elliptic.P256().Params().N

// p256OrderInverse is P-256's own k⁻¹ mod n, which crypto/elliptic offers
// on amd64 and arm64. Elsewhere (386) it is nil and ModInverse stands in.
var p256OrderInverse, _ = elliptic.P256().(interface{ Inverse(*big.Int) *big.Int })

// signScratch holds signDigest's integers; signPool keeps their words
// between calls.
type signScratch struct{ e, r, k, kInv, s, q big.Int }

var signPool = sync.Pool{New: func() any { return new(signScratch) }}

// signDigest signs a SHA-256 digest and returns the fixed-width r‖s of RFC
// 6605 §4. Its nonce is RFC 6979 §3.2's, so the signature is a function of
// the key and the digest alone: byte for byte what crypto/ecdsa's
// PrivateKey.Sign returns when handed no random source. The nonce's DRBG
// runs on stack arrays, k·G comes from crypto/ecdh and s from pooled
// integers: 13 allocations, where that Sign takes 64.
func signDigest(priv *ecdsa.PrivateKey, digest [sha256.Size]byte) ([]byte, error) {
	counters.signs.Add(1)
	n, d := p256Order, priv.D
	if d.Sign() <= 0 || d.Cmp(n) >= 0 {
		return nil, errors.New("dnssec: signing: scalar is no P-256 key")
	}
	sc := signPool.Get().(*signScratch)
	defer signPool.Put(sc)
	e := sc.e.SetBytes(digest[:])
	sc.q.QuoRem(e, n, e) // e = digest mod n: RFC 6979's h1
	var x, h1 [32]byte
	d.FillBytes(x[:])
	e.FillBytes(h1[:])
	kBytes, kG := rfc6979Nonce(x, h1)
	r := sc.r.SetBytes(kG.PublicKey().Bytes()[1:33]) // k·G is 0x04 ‖ X ‖ Y
	sc.q.QuoRem(r, n, r)                             // r = X mod n
	k, kInv := sc.k.SetBytes(kBytes), &sc.kInv
	if p256OrderInverse != nil {
		kInv = p256OrderInverse.Inverse(k)
	} else {
		kInv.ModInverse(k, n)
	}
	s := sc.s.Mul(r, d) // s = k⁻¹(e + r·d) mod n
	sc.q.QuoRem(s.Add(s, e), n, s)
	sc.q.QuoRem(s.Mul(s, kInv), n, s)
	if r.Sign() == 0 || s.Sign() == 0 {
		return nil, errors.New("dnssec: signing: r or s is zero")
	}
	out := make([]byte, 64)
	r.FillBytes(out[:32])
	s.FillBytes(out[32:])
	return out, nil
}

// rfc6979Nonce returns RFC 6979 §3.2's nonce k for the scalar x and the
// digest h1 reduced mod n, over P-256 and SHA-256 (qlen = hlen, so one
// HMAC block is one candidate), and k as the ecdh key that computes k·G.
// crypto/ecdh accepts exactly the candidates 1 ≤ k < n.
func rfc6979Nonce(x, h1 [32]byte) ([]byte, *ecdh.PrivateKey) {
	var K, V [sha256.Size]byte // step c: K = 0x00…
	for i := range V {
		V[i] = 1 // step b: V = 0x01…
	}
	for _, sep := range []byte{0, 1} { // steps d–g
		K = hmacSHA256(&K, V[:], []byte{sep}, x[:], h1[:])
		V = hmacSHA256(&K, V[:])
	}
	for { // step h
		V = hmacSHA256(&K, V[:])
		k := bytes.Clone(V[:])
		if kG, err := ecdh.P256().NewPrivateKey(k); err == nil {
			return k, kG
		}
		K = hmacSHA256(&K, V[:], []byte{0})
		V = hmacSHA256(&K, V[:])
	}
}

// hmacSHA256 is HMAC-SHA-256 (RFC 2104) under a 32-byte key over the
// concatenated parts, written as its definition H((K⊕opad) ‖ H((K⊕ipad) ‖
// msg)) on a stack buffer, so it allocates nothing for a message of up to
// the nonce's longest, V ‖ 0x00 ‖ x ‖ h1.
func hmacSHA256(key *[sha256.Size]byte, parts ...[]byte) [sha256.Size]byte {
	var buf [sha256.BlockSize + 3*sha256.Size + 1]byte
	pad := buf[:sha256.BlockSize]
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range key {
		pad[i] ^= b
	}
	in := pad
	for _, p := range parts {
		in = append(in, p...)
	}
	inner := sha256.Sum256(in)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	return sha256.Sum256(append(pad, inner[:]...))
}

// VerifyRRSIG checks an RRSIG over an RRset against a DNSKEY record. now is
// used for the validity window. It never consults a memo: every call pays
// for the ECDSA verification.
func VerifyRRSIG(rrsig dnswire.RR, rrs []dnswire.RR, dnskey dnswire.RR, now time.Time) error {
	return (*SigMemo)(nil).Verify(rrsig, rrs, dnskey, now)
}

// SigMemo remembers which signatures are known to verify, so that a
// campaign whose recursors meet the same (key, signature, RRset) thousands
// of times — a TLD's DS RRset once per adopter, a domain's chain once per
// scan day — pays for each ECDSA verification at most once. An entry is
// memoID(public key, signature, signing-input digest): a pure function of
// the three inputs of the ECDSA step, so a hit can stand in for that step
// and nothing else. The checks that depend on anything outside the key —
// type covered, algorithm, key tag, signer, and the validity window against
// the caller's now — run on every call before the memo is consulted, which
// is why a hit can never carry a signature past its expiration or onto
// another key, owner or RRset. A memo stores successes; the process memo
// also every signature this process made, which verifies by construction.
// A hit allocates nothing: the signing input is built and hashed in a
// pooled buffer, the id in a stack array. Safe for concurrent use; bounded
// at sigMemoCap entries (a full shard is dropped whole — entries do not
// expire, there is nothing older to prefer). The zero value is an empty
// memo; a nil *SigMemo verifies without remembering.
type SigMemo struct {
	shards [sigMemoShards]struct {
		mu sync.Mutex
		m  map[[sha256.Size]byte]struct{}
	}
}

const (
	sigMemoShards = 16
	sigMemoCap    = 1 << 16
)

// processMemo is the memo SignRRset's deferred step seeds. Its ids are pure
// functions of their inputs, so one memo serves every world of the process.
var processMemo SigMemo

// ProcessMemo returns the memo every signature this process makes is added
// to, for a validator's Memo.
func ProcessMemo() *SigMemo { return &processMemo }

// counters counts the process's ECDSA work; ReadCounts reads them.
var counters struct{ signs, verifies, hits, seeds, resets atomic.Uint64 }

// Counts is the ECDSA work a process has done since it started.
type Counts struct {
	Signs    uint64 // signatures made
	Verifies uint64 // full ECDSA verifications run
	Hits     uint64 // verifications a memo hit stood in for
	Seeds    uint64 // ids the signer added to the process memo
	Resets   uint64 // memo shards dropped whole at their cap
}

// ReadCounts returns the process's counts so far; the difference of two
// reads counts what ran between them.
func ReadCounts() Counts {
	return Counts{counters.signs.Load(), counters.verifies.Load(), counters.hits.Load(),
		counters.seeds.Load(), counters.resets.Load()}
}

// Sub returns c less an earlier read.
func (c Counts) Sub(earlier Counts) Counts {
	return Counts{c.Signs - earlier.Signs, c.Verifies - earlier.Verifies, c.Hits - earlier.Hits,
		c.Seeds - earlier.Seeds, c.Resets - earlier.Resets}
}

// memoID is a memo entry: SHA-256(public key ‖ signature ‖ signing-input
// digest).
func memoID(pub, sig []byte, digest [sha256.Size]byte) [sha256.Size]byte {
	var buf [64 + 64 + sha256.Size]byte
	return sha256.Sum256(append(append(append(buf[:0], pub...), sig...), digest[:]...))
}

// Verify is VerifyRRSIG with the ECDSA step skipped for a (key, signature,
// RRset) that m knows to verify. Its verdict equals VerifyRRSIG's on every
// input.
func (m *SigMemo) Verify(rrsig dnswire.RR, rrs []dnswire.RR, dnskey dnswire.RR, now time.Time) error {
	sig, ok := rrsig.Data.(*dnswire.RRSIGData)
	if !ok {
		return fmt.Errorf("dnssec: record is not an RRSIG")
	}
	keyData, ok := dnskey.Data.(*dnswire.DNSKEYData)
	if !ok {
		return fmt.Errorf("dnssec: record is not a DNSKEY")
	}
	if len(rrs) == 0 {
		return ErrEmptyRRset
	}
	if sig.TypeCovered != rrs[0].Type {
		return fmt.Errorf("dnssec: RRSIG covers %s, RRset is %s", sig.TypeCovered, rrs[0].Type)
	}
	if keyData.Algorithm != sig.Algorithm {
		return fmt.Errorf("dnssec: algorithm mismatch (key %d, sig %d)", keyData.Algorithm, sig.Algorithm)
	}
	if sig.Algorithm != dnswire.AlgECDSAP256SHA256 {
		return fmt.Errorf("dnssec: unsupported algorithm %d", sig.Algorithm)
	}
	if keyData.KeyTag() != sig.KeyTag {
		return ErrNoKey
	}
	if dnswire.CanonicalName(dnskey.Name) != dnswire.CanonicalName(sig.SignerName) {
		return fmt.Errorf("dnssec: DNSKEY owner %q != signer %q", dnskey.Name, sig.SignerName)
	}
	ts := uint32(now.Unix())
	if ts < sig.Inception || ts > sig.Expiration {
		return ErrExpired
	}
	// The one read of the signature bytes: a deferred signature is made
	// here, after the field and validity-window checks.
	sigBytes := sig.SignatureBytes()
	if len(sigBytes) != 64 {
		return fmt.Errorf("dnssec: P-256 signature must be 64 bytes, got %d", len(sigBytes))
	}
	digest, err := signingDigest(sig, rrs, sig.OriginalTTL)
	if err != nil {
		return err
	}
	var id [sha256.Size]byte
	if m != nil {
		if id = memoID(keyData.PublicKey, sigBytes, digest); m.seen(id) {
			counters.hits.Add(1)
			return nil // this key made or verified this signature over this input
		}
	}
	pub, err := decodePublicKey(keyData.PublicKey)
	if err != nil {
		return err
	}
	r := new(big.Int).SetBytes(sigBytes[:32])
	s := new(big.Int).SetBytes(sigBytes[32:])
	counters.verifies.Add(1)
	if !ecdsa.Verify(pub, digest[:], r, s) {
		return ErrBadSignature
	}
	if m != nil {
		m.add(id)
	}
	return nil
}

func (m *SigMemo) seen(id [sha256.Size]byte) bool {
	sh := &m.shards[id[0]%sigMemoShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.m[id]
	return ok
}

func (m *SigMemo) add(id [sha256.Size]byte) {
	sh := &m.shards[id[0]%sigMemoShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil || len(sh.m) >= sigMemoCap/sigMemoShards {
		if sh.m != nil {
			counters.resets.Add(1)
		}
		sh.m = map[[sha256.Size]byte]struct{}{}
	}
	sh.m[id] = struct{}{}
}

// matchesDS reports whether the DNSKEY record corresponds to the DS record.
func matchesDS(dnskey dnswire.RR, ds dnswire.RR) bool {
	dsData, ok := ds.Data.(*dnswire.DSData)
	if !ok {
		return false
	}
	key, digest, err := dsDigest(dnskey)
	return err == nil &&
		key.KeyTag() == dsData.KeyTag &&
		key.Algorithm == dsData.Algorithm &&
		dsData.DigestType == dnswire.DigestSHA256 &&
		bytes.Equal(digest[:], dsData.Digest)
}
