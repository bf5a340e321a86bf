package dnswire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strings"
	"sync"

	"repro/internal/svcb"
)

// RR is a DNS resource record: owner name, type, class, TTL, and typed RDATA.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file presentation format.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", CanonicalName(rr.Name), rr.TTL, rr.Class, rr.Type, rr.Data.String())
}

// Clone returns a deep copy of the record.
func (rr RR) Clone() RR {
	out := rr
	out.Data = rr.Data.clone()
	return out
}

// RData is the typed RDATA portion of a resource record.
type RData interface {
	// pack appends the wire encoding of the RDATA to dst. cmap enables
	// owner-message name compression for the record types where RFC 1035
	// permits it; implementations for other types ignore it.
	pack(dst []byte, cmap *compressionMap) ([]byte, error)
	clone() RData
	String() string
}

// A (IPv4 address) record data.
type AData struct{ Addr netip.Addr }

func (d *AData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	if !d.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record address %v is not IPv4", d.Addr)
	}
	b := d.Addr.As4()
	return append(dst, b[:]...), nil
}
func (d *AData) clone() RData   { c := *d; return &c }
func (d *AData) String() string { return d.Addr.String() }

// AAAA (IPv6 address) record data.
type AAAAData struct{ Addr netip.Addr }

func (d *AAAAData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	if !d.Addr.Is6() || d.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record address %v is not IPv6", d.Addr)
	}
	b := d.Addr.As16()
	return append(dst, b[:]...), nil
}
func (d *AAAAData) clone() RData   { c := *d; return &c }
func (d *AAAAData) String() string { return d.Addr.String() }

// CNAMEData aliases the owner name to Target.
type CNAMEData struct{ Target string }

func (d *CNAMEData) pack(dst []byte, cmap *compressionMap) ([]byte, error) {
	return packName(dst, d.Target, cmap)
}
func (d *CNAMEData) clone() RData   { c := *d; return &c }
func (d *CNAMEData) String() string { return CanonicalName(d.Target) }

// NSData names an authoritative name server for the owner zone.
type NSData struct{ Host string }

func (d *NSData) pack(dst []byte, cmap *compressionMap) ([]byte, error) {
	return packName(dst, d.Host, cmap)
}
func (d *NSData) clone() RData   { c := *d; return &c }
func (d *NSData) String() string { return CanonicalName(d.Host) }

// SOAData holds the start-of-authority parameters of a zone.
type SOAData struct {
	MName   string // primary name server
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (d *SOAData) pack(dst []byte, cmap *compressionMap) ([]byte, error) {
	var err error
	dst, err = packName(dst, d.MName, cmap)
	if err != nil {
		return nil, err
	}
	dst, err = packName(dst, d.RName, cmap)
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint32(dst, d.Serial)
	dst = binary.BigEndian.AppendUint32(dst, d.Refresh)
	dst = binary.BigEndian.AppendUint32(dst, d.Retry)
	dst = binary.BigEndian.AppendUint32(dst, d.Expire)
	dst = binary.BigEndian.AppendUint32(dst, d.Minimum)
	return dst, nil
}
func (d *SOAData) clone() RData { c := *d; return &c }
func (d *SOAData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d", CanonicalName(d.MName), CanonicalName(d.RName),
		d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// SVCBData is the RDATA shared by SVCB and HTTPS records (RFC 9460).
// Priority zero means AliasMode; non-zero means ServiceMode.
type SVCBData struct {
	Priority uint16
	Target   string // "." means the owner name itself in ServiceMode
	Params   svcb.Params
}

// AliasMode reports whether the record is in AliasMode (priority 0).
func (d *SVCBData) AliasMode() bool { return d.Priority == 0 }

func (d *SVCBData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, d.Priority)
	var err error
	dst, err = packName(dst, d.Target, nil)
	if err != nil {
		return nil, err
	}
	if d.AliasMode() && len(d.Params) > 0 {
		return nil, fmt.Errorf("dnswire: AliasMode SVCB record must not carry SvcParams")
	}
	return d.Params.Pack(dst)
}
func (d *SVCBData) clone() RData {
	return &SVCBData{Priority: d.Priority, Target: d.Target, Params: d.Params.Clone()}
}
func (d *SVCBData) String() string {
	s := fmt.Sprintf("%d %s", d.Priority, CanonicalName(d.Target))
	if p := d.Params.String(); p != "" {
		s += " " + p
	}
	return s
}

// DSData is a delegation signer digest uploaded to the parent zone.
type DSData struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

func (d *DSData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, d.KeyTag)
	dst = append(dst, d.Algorithm, d.DigestType)
	return append(dst, d.Digest...), nil
}
func (d *DSData) clone() RData {
	return &DSData{KeyTag: d.KeyTag, Algorithm: d.Algorithm, DigestType: d.DigestType,
		Digest: append([]byte(nil), d.Digest...)}
}
func (d *DSData) String() string {
	return fmt.Sprintf("%d %d %d %s", d.KeyTag, d.Algorithm, d.DigestType,
		strings.ToUpper(hex.EncodeToString(d.Digest)))
}

// DNSKEYData is a zone public key.
type DNSKEYData struct {
	Flags     uint16
	Protocol  uint8 // always 3
	Algorithm uint8
	PublicKey []byte
}

// IsKSK reports whether the key has the Secure Entry Point flag set.
func (d *DNSKEYData) IsKSK() bool { return d.Flags&DNSKEYFlagSEP != 0 }

func (d *DNSKEYData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, d.Flags)
	dst = append(dst, d.Protocol, d.Algorithm)
	return append(dst, d.PublicKey...), nil
}
func (d *DNSKEYData) clone() RData {
	return &DNSKEYData{Flags: d.Flags, Protocol: d.Protocol, Algorithm: d.Algorithm,
		PublicKey: append([]byte(nil), d.PublicKey...)}
}
func (d *DNSKEYData) String() string {
	return fmt.Sprintf("%d %d %d %s", d.Flags, d.Protocol, d.Algorithm,
		base64.StdEncoding.EncodeToString(d.PublicKey))
}

// KeyTag computes the RFC 4034 Appendix B key tag of the key: the sum of
// the RDATA read as big-endian 16-bit words, taken here straight from the
// fields rather than from packed bytes. Flags is one word and protocol and
// algorithm another, so the key starts on a word boundary.
func (d *DNSKEYData) KeyTag() uint16 {
	acc := uint32(d.Flags) + uint32(d.Protocol)<<8 + uint32(d.Algorithm)
	for i, b := range d.PublicKey {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xffff
	return uint16(acc & 0xffff)
}

// RRSIGData is a DNSSEC signature over an RRset.
//
// A signature may be deferred (DeferSignature): its bytes are made the first
// time anything reads them — packing, Clone, String or SignatureBytes. An
// RRSIGData is not copied by value.
type RRSIGData struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32 // seconds since epoch
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	// Signature holds the signature bytes once they exist. Outside this
	// package read it through SignatureBytes, which fills it first.
	Signature []byte

	// deferred is set by DeferSignature before the record is shared and
	// never after, so reading it races with nothing; the signer runs over
	// digest under once and is dropped when it has.
	deferred bool
	once     sync.Once
	signer   DigestSigner
	digest   [32]byte
}

// A DigestSigner makes a deferred signature: SignDigest returns the
// signature over a 32-byte signing-input digest, the same bytes whenever it
// runs.
type DigestSigner interface {
	SignDigest(digest [32]byte) []byte
}

// DeferSignature makes s sign digest into the signature of a fresh record
// the first time the signature is read. Call it before the record is
// shared; s runs at most once, on whichever goroutine reads first.
func (d *RRSIGData) DeferSignature(s DigestSigner, digest [32]byte) {
	d.deferred, d.signer, d.digest = true, s, digest
}

// SignatureBytes returns the signature, running a deferred signer first if
// nothing has read it yet. Safe for concurrent use.
func (d *RRSIGData) SignatureBytes() []byte {
	if d.deferred {
		d.once.Do(func() { d.Signature, d.signer = d.signer.SignDigest(d.digest), nil })
	}
	return d.Signature
}

func (d *RRSIGData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	dst, err := d.AppendSignedPrefix(dst)
	if err != nil {
		return nil, err
	}
	return append(dst, d.SignatureBytes()...), nil
}

// AppendSignedPrefix appends every RRSIG field but the signature itself to
// dst: the prefix of the data being signed (RFC 4034 §3.1.8.1), with the
// signer's name lower-cased and uncompressed. A signer name that does not
// pack is an error, and then it returns nil.
func (d *RRSIGData) AppendSignedPrefix(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, uint16(d.TypeCovered))
	dst = append(dst, d.Algorithm, d.Labels)
	dst = binary.BigEndian.AppendUint32(dst, d.OriginalTTL)
	dst = binary.BigEndian.AppendUint32(dst, d.Expiration)
	dst = binary.BigEndian.AppendUint32(dst, d.Inception)
	dst = binary.BigEndian.AppendUint16(dst, d.KeyTag)
	dst, err := packName(dst, d.SignerName, nil)
	if err != nil {
		return nil, fmt.Errorf("packing RRSIG signer %q: %w", d.SignerName, err)
	}
	return dst, nil
}

func (d *RRSIGData) clone() RData {
	return &RRSIGData{TypeCovered: d.TypeCovered, Algorithm: d.Algorithm, Labels: d.Labels,
		OriginalTTL: d.OriginalTTL, Expiration: d.Expiration, Inception: d.Inception,
		KeyTag: d.KeyTag, SignerName: d.SignerName, Signature: append([]byte(nil), d.SignatureBytes()...)}
}
func (d *RRSIGData) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s", d.TypeCovered, d.Algorithm, d.Labels,
		d.OriginalTTL, d.Expiration, d.Inception, d.KeyTag, CanonicalName(d.SignerName),
		base64.StdEncoding.EncodeToString(d.SignatureBytes()))
}

// OPTData is the EDNS(0) pseudo-record RDATA (options only; the UDP size and
// extended flags live in the RR header fields, handled by Message).
type OPTData struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

func (d *OPTData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	for _, o := range d.Options {
		dst = binary.BigEndian.AppendUint16(dst, o.Code)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(o.Data)))
		dst = append(dst, o.Data...)
	}
	return dst, nil
}
func (d *OPTData) clone() RData {
	out := &OPTData{Options: make([]EDNSOption, len(d.Options))}
	for i, o := range d.Options {
		out.Options[i] = EDNSOption{Code: o.Code, Data: append([]byte(nil), o.Data...)}
	}
	return out
}
func (d *OPTData) String() string { return fmt.Sprintf("OPT(%d options)", len(d.Options)) }

// RawData carries RDATA of record types the codec does not model (RFC 3597),
// byte for byte; see checkRawNames for the one kind it refuses.
type RawData struct{ Bytes []byte }

func (d *RawData) pack(dst []byte, _ *compressionMap) ([]byte, error) {
	return append(dst, d.Bytes...), nil
}
func (d *RawData) clone() RData { return &RawData{Bytes: append([]byte(nil), d.Bytes...)} }
func (d *RawData) String() string {
	return fmt.Sprintf("\\# %d %s", len(d.Bytes), hex.EncodeToString(d.Bytes))
}

// unpackRDataInto decodes the RDATA of the given type from
// msg[off:off+rdlen]. msg is the full message so compressed names can be
// followed. When prev (the RDATA occupying this slot in a recycled Message)
// has the matching concrete type, its value is updated in place — byte
// slices and name strings are reused so re-decoding an unchanged record
// allocates nothing.
func unpackRDataInto(t Type, msg []byte, off, rdlen int, prev RData, sc *decodeScratch) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, fmt.Errorf("dnswire: RDATA extends past message end")
	}
	rd := msg[off:end]
	switch t {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("dnswire: A RDATA must be 4 bytes, got %d", rdlen)
		}
		addr, _ := netip.AddrFromSlice(rd)
		if d, ok := prev.(*AData); ok {
			d.Addr = addr
			return d, nil
		}
		return &AData{Addr: addr}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("dnswire: AAAA RDATA must be 16 bytes, got %d", rdlen)
		}
		addr, _ := netip.AddrFromSlice(rd)
		if d, ok := prev.(*AAAAData); ok {
			d.Addr = addr
			return d, nil
		}
		return &AAAAData{Addr: addr}, nil
	case TypeCNAME, TypeNS:
		var prevName string
		switch d := prev.(type) {
		case *CNAMEData:
			prevName = d.Target
		case *NSData:
			prevName = d.Host
		}
		name, n, err := unpackNameCached(sc, msg, off, prevName)
		if err != nil {
			return nil, err
		}
		if n != end {
			return nil, fmt.Errorf("dnswire: %s RDATA has %d trailing bytes", t, end-n)
		}
		if t == TypeCNAME {
			if d, ok := prev.(*CNAMEData); ok {
				d.Target = name
				return d, nil
			}
			return &CNAMEData{Target: name}, nil
		}
		if d, ok := prev.(*NSData); ok {
			d.Host = name
			return d, nil
		}
		return &NSData{Host: name}, nil
	case TypeSOA:
		d, ok := prev.(*SOAData)
		if !ok {
			d = &SOAData{}
		}
		mname, n, err := unpackNameCached(sc, msg, off, d.MName)
		if err != nil {
			return nil, err
		}
		rname, n, err := unpackNameCached(sc, msg, n, d.RName)
		if err != nil {
			return nil, err
		}
		if n > end || end-n != 20 {
			return nil, fmt.Errorf("dnswire: SOA RDATA fixed fields must be 20 bytes")
		}
		f := msg[n:end]
		d.MName, d.RName = mname, rname
		d.Serial = binary.BigEndian.Uint32(f[0:])
		d.Refresh = binary.BigEndian.Uint32(f[4:])
		d.Retry = binary.BigEndian.Uint32(f[8:])
		d.Expire = binary.BigEndian.Uint32(f[12:])
		d.Minimum = binary.BigEndian.Uint32(f[16:])
		return d, nil
	case TypeSVCB, TypeHTTPS:
		if rdlen < 3 {
			return nil, fmt.Errorf("dnswire: SVCB RDATA too short")
		}
		d, ok := prev.(*SVCBData)
		if !ok {
			d = &SVCBData{}
		}
		prio := binary.BigEndian.Uint16(rd)
		target, n, err := unpackNameCached(sc, msg, off+2, d.Target)
		if err != nil {
			return nil, err
		}
		if n > end {
			return nil, fmt.Errorf("dnswire: SVCB target name overruns RDATA")
		}
		params, err := svcb.UnpackParamsInto(d.Params, msg[n:end])
		if err != nil {
			return nil, err
		}
		d.Priority, d.Target, d.Params = prio, target, params
		return d, nil
	case TypeDS:
		if rdlen < 5 {
			return nil, fmt.Errorf("dnswire: DS RDATA too short")
		}
		d, ok := prev.(*DSData)
		if !ok {
			d = &DSData{}
		}
		d.KeyTag = binary.BigEndian.Uint16(rd)
		d.Algorithm = rd[2]
		d.DigestType = rd[3]
		d.Digest = append(d.Digest[:0], rd[4:]...)
		return d, nil
	case TypeDNSKEY:
		if rdlen < 5 {
			return nil, fmt.Errorf("dnswire: DNSKEY RDATA too short")
		}
		d, ok := prev.(*DNSKEYData)
		if !ok {
			d = &DNSKEYData{}
		}
		d.Flags = binary.BigEndian.Uint16(rd)
		d.Protocol = rd[2]
		d.Algorithm = rd[3]
		d.PublicKey = append(d.PublicKey[:0], rd[4:]...)
		return d, nil
	case TypeRRSIG:
		if rdlen < 19 {
			return nil, fmt.Errorf("dnswire: RRSIG RDATA too short")
		}
		d, ok := prev.(*RRSIGData)
		if !ok {
			d = &RRSIGData{}
		}
		signer, n, err := unpackNameCached(sc, msg, off+18, d.SignerName)
		if err != nil {
			return nil, err
		}
		if n > end {
			return nil, fmt.Errorf("dnswire: RRSIG signer name overruns RDATA")
		}
		d.TypeCovered = Type(binary.BigEndian.Uint16(rd))
		d.Algorithm = rd[2]
		d.Labels = rd[3]
		d.OriginalTTL = binary.BigEndian.Uint32(rd[4:])
		d.Expiration = binary.BigEndian.Uint32(rd[8:])
		d.Inception = binary.BigEndian.Uint32(rd[12:])
		d.KeyTag = binary.BigEndian.Uint16(rd[16:])
		d.SignerName = signer
		d.Signature = append(d.Signature[:0], msg[n:end]...)
		if d.deferred { // the wire bytes are the signature: a recycled slot's signer must never run
			d.deferred, d.signer, d.digest, d.once = false, nil, [32]byte{}, sync.Once{}
		}
		return d, nil
	case TypeOPT:
		d, ok := prev.(*OPTData)
		if !ok {
			d = &OPTData{}
		}
		prevOpts := d.Options[:cap(d.Options)]
		opts := d.Options[:0]
		b := rd
		for len(b) > 0 {
			if len(b) < 4 {
				return nil, fmt.Errorf("dnswire: truncated EDNS option")
			}
			code := binary.BigEndian.Uint16(b)
			olen := int(binary.BigEndian.Uint16(b[2:]))
			b = b[4:]
			if len(b) < olen {
				return nil, fmt.Errorf("dnswire: truncated EDNS option data")
			}
			var old []byte
			if len(opts) < len(prevOpts) {
				old = prevOpts[len(opts)].Data[:0]
			}
			opts = append(opts, EDNSOption{Code: code, Data: append(old, b[:olen]...)})
			b = b[olen:]
		}
		d.Options = opts
		return d, nil
	default:
		if err := checkRawNames(t, rd); err != nil {
			return nil, err
		}
		d, ok := prev.(*RawData)
		if !ok {
			d = &RawData{}
		}
		d.Bytes = append(d.Bytes[:0], rd...)
		return d, nil
	}
}

// checkRawNames refuses the RDATA of an RFC 1035 name-bearing type the codec
// keeps raw — MD, MF, MB, MG, MR, PTR, MINFO, MX — when one of its names
// holds a compression pointer. RFC 3597 §4 lets servers compress only these
// types; copied raw, the pointer would aim into whichever message re-packs
// the record. The walk follows plain labels at the type's fixed name offset
// and stops at the RDATA's end: bytes without a pointer are self-contained.
func checkRawNames(t Type, rd []byte) error {
	off, names := 0, 1
	switch t {
	case 3, 4, 7, 8, 9, TypePTR: // MD, MF, MB, MG, MR
	case 14: // MINFO: two mailbox names
		names = 2
	case TypeMX:
		off = 2 // after the preference
	default:
		return nil
	}
	for ; names > 0 && off < len(rd); names-- {
		for off < len(rd) && rd[off] != 0 {
			switch rd[off] & 0xc0 {
			case 0:
			case 0xc0:
				return fmt.Errorf("dnswire: %s RDATA kept raw holds a compression pointer: %w", t, ErrBadPointer)
			default:
				return fmt.Errorf("dnswire: reserved label type %#x", rd[off]&0xc0)
			}
			off += 1 + int(rd[off])
		}
		off++
	}
	return nil
}
