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
package dnssec

import (
	"bytes"
	"crypto"
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
// deferred step's closure and nothing else. The ECDSA step
// waits until something first reads the signature bytes — packing the
// record, Clone, String, or verification (SigMemo.Verify, VerifyRRSIG),
// all through RRSIGData.SignatureBytes — and runs once. RFC 6979 makes the
// bytes a function of the key and the digest alone, so they are the same
// whenever they are made; a record nothing reads never pays for them.
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
	priv := key.Private
	sig.DeferSignature(func() []byte {
		// signDigest fails only for a scalar that is no P-256 key, which
		// DeriveKey never returns; an empty signature verifies nowhere.
		out, _ := signDigest(priv, digest)
		return out
	})
	return dnswire.RR{
		Name:  owner,
		Type:  dnswire.TypeRRSIG,
		Class: rrs[0].Class,
		TTL:   origTTL,
		Data:  sig,
	}, nil
}

// signDigest signs a SHA-256 digest and returns the fixed-width r‖s of RFC
// 6605 §4. Handed no random source, PrivateKey.Sign picks the nonce per RFC
// 6979: the signature is a function of the key and the digest alone.
func signDigest(priv *ecdsa.PrivateKey, digest [sha256.Size]byte) ([]byte, error) {
	der, err := priv.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		return nil, fmt.Errorf("dnssec: signing: %w", err)
	}
	out := make([]byte, 64)
	if err := derSig(out, der); err != nil {
		return nil, fmt.Errorf("dnssec: signing: %w", err)
	}
	return out, nil
}

var errBadDER = errors.New("malformed DER ECDSA signature")

// derSig reads the DER SEQUENCE{INTEGER r, INTEGER s} that PrivateKey.Sign
// returns into out as r‖s, each integer left-padded to half of out. A P-256
// signature's DER is at most 72 bytes, so every length is in short form.
func derSig(out, der []byte) error {
	seq, rest, ok := derElem(der, 0x30)
	if !ok || len(rest) != 0 {
		return errBadDER
	}
	r, seq, ok := derElem(seq, 0x02)
	if !ok {
		return errBadDER
	}
	s, seq, ok := derElem(seq, 0x02)
	if !ok || len(seq) != 0 {
		return errBadDER
	}
	half := len(out) / 2
	if !derUint(out[:half], r) || !derUint(out[half:], s) {
		return errBadDER
	}
	return nil
}

// derElem splits off b's first element, which must carry tag and a
// short-form length.
func derElem(b []byte, tag byte) (val, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != tag || b[1] > 0x7f || int(b[1]) > len(b)-2 {
		return nil, nil, false
	}
	n := 2 + int(b[1])
	return b[2:n], b[n:], true
}

// derUint writes a minimally encoded, non-negative DER integer into dst,
// right-aligned and zero-padded; it reports false for any other integer or
// one too long for dst.
func derUint(dst, v []byte) bool {
	if len(v) == 0 || v[0]&0x80 != 0 {
		return false
	}
	if len(v) > 1 && v[0] == 0 {
		if v[1]&0x80 == 0 {
			return false // not minimal
		}
		v = v[1:]
	}
	if len(v) > len(dst) {
		return false
	}
	pad := len(dst) - len(v)
	clear(dst[:pad])
	copy(dst[pad:], v)
	return true
}

// VerifyRRSIG checks an RRSIG over an RRset against a DNSKEY record. now is
// used for the validity window. It never consults a memo: every call pays
// for the ECDSA verification.
func VerifyRRSIG(rrsig dnswire.RR, rrs []dnswire.RR, dnskey dnswire.RR, now time.Time) error {
	return (*SigMemo)(nil).Verify(rrsig, rrs, dnskey, now)
}

// SigMemo remembers which signatures already verified, so that a campaign
// whose recursors meet the same (key, signature, RRset) thousands of times
// — a TLD's DS RRset once per adopter, a domain's chain once per scan day —
// pays for each ECDSA verification once. An entry is SHA-256(public key ‖
// signature ‖ signing-input digest): a pure function of the three inputs of
// the ECDSA step, so a hit can stand in for that step and nothing else.
// The checks that depend on anything outside the key — type covered,
// algorithm, key tag, signer, and the validity window against the caller's
// now — run on every call before the memo is consulted, which is why a hit
// can never carry a signature past its expiration or onto another key,
// owner or RRset. Only successes are stored. A hit allocates nothing: the
// signing input is built and hashed in a pooled buffer, the id in a stack
// array. Safe for concurrent use;
// bounded at sigMemoCap entries (a full shard is dropped whole — entries do
// not expire, there is nothing older to prefer). A nil *SigMemo verifies
// without remembering.
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

// NewSigMemo returns an empty memo.
func NewSigMemo() *SigMemo { return &SigMemo{} }

// Verify is VerifyRRSIG with the ECDSA step skipped for a (key, signature,
// RRset) that m has seen verify. Its verdict equals VerifyRRSIG's on every
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
		var buf [64 + 64 + sha256.Size]byte
		id = sha256.Sum256(append(append(append(buf[:0], keyData.PublicKey...), sigBytes...), digest[:]...))
		if m.seen(id) {
			return nil // this key decoded and verified this input before
		}
	}
	pub, err := decodePublicKey(keyData.PublicKey)
	if err != nil {
		return err
	}
	r := new(big.Int).SetBytes(sigBytes[:32])
	s := new(big.Int).SetBytes(sigBytes[32:])
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
