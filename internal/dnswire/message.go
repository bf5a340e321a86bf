package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/testrace"
)

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// Message is a full DNS message.
type Message struct {
	ID     uint16
	Opcode Opcode
	RCode  RCode

	// Header flags.
	Response           bool // QR
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	AuthenticatedData  bool // AD
	CheckingDisabled   bool // CD

	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR

	// home is the skeleton a NewQuery or Reply message lives in; nil for
	// every other message, a QuerySlab's included. Release gives it back.
	home *skeleton
}

// skeleton is the single allocation behind NewQuery and Reply: the message
// with inline room for its one question, its OPT record and that record's
// RDATA. Question and Additional are handed out with capacity 1, so an
// append by a handler moves to a fresh array and can never write into the
// skeleton or, through it, into another message.
type skeleton struct {
	Message
	q   [1]Question
	opt [1]RR
	od  OPTData
}

// skeletons recycles what Release hands back, zeroed: the sections a reply
// carried are its handler's shared records and are dropped on the way in,
// never kept as decode slots the way a transport.Client's answers are.
var skeletons = sync.Pool{New: func() any { return new(skeleton) }}

func newSkeleton() *skeleton {
	s := skeletons.Get().(*skeleton)
	if testrace.Enabled {
		*s = skeleton{} // Release poisoned it
	}
	s.home = s
	return s
}

// Release returns a message built by NewQuery or Reply to the pool they
// draw from. The caller must be the message's only holder and must not
// touch it again; the records its sections pointed at are not affected.
// On any message Release does not own — nil, decoded, hand-built, a value
// copy of a skeleton's message, one already released — it does nothing.
func (m *Message) Release() {
	if m == nil || m.home == nil || &m.home.Message != m {
		return
	}
	s := m.home
	*s = skeleton{}
	if testrace.Enabled {
		// A read after Release is loud: what the skeleton owns says what no
		// answer says. Sections are dropped, never written: they are shared.
		s.Message = Message{ID: 0xdead, Opcode: 15, RCode: 0xffff, Authoritative: true, Truncated: true,
			AuthenticatedData: true, CheckingDisabled: true, Question: s.q[:], Additional: s.opt[:]}
		s.q[0], s.opt[0] = Question{Name: poisonName}, RR{Name: poisonName, TTL: 0xffffffff}
	}
	skeletons.Put(s)
}

const poisonName = "poisoned-after-release.invalid."

// edns arms the skeleton's inline OPT record.
func (s *skeleton) edns(dnssecOK bool) {
	s.opt[0] = optRR(MaxUDPSize, dnssecOK, &s.od)
	s.Additional = s.opt[:]
}

// NewQuery builds a recursion-desired query for (name, type) with EDNS(0),
// in one allocation or in a skeleton that came back through Release.
func NewQuery(id uint16, name string, t Type, dnssecOK bool) *Message {
	return newSkeleton().query(id, name, t, dnssecOK)
}

// query makes a zeroed skeleton NewQuery's message.
func (s *skeleton) query(id uint16, name string, t Type, dnssecOK bool) *Message {
	s.ID, s.RecursionDesired = id, true
	s.q[0] = Question{Name: CanonicalName(name), Type: t, Class: ClassINET}
	s.Question = s.q[:]
	s.edns(dnssecOK)
	return &s.Message
}

// QuerySlab hands out queries carved from chunks of skeletons that never go
// back to a pool: a slot is written once, when its query is built, so a
// receiver may keep the query and read it as sent for good. Release on such
// a query does nothing. The zero value is ready to use; a QuerySlab is not
// safe for concurrent use, so the resolver's shared query table, its one
// user, calls it under the table's write lock.
type QuerySlab struct{ free []skeleton }

// querySlabChunk is how many skeletons a QuerySlab allocates at a time
// (about 6.5 KB).
const querySlabChunk = 32

// NewQuery is the package's NewQuery, built in the slab's next free slot.
func (qs *QuerySlab) NewQuery(id uint16, name string, t Type, dnssecOK bool) *Message {
	if len(qs.free) == 0 {
		qs.free = make([]skeleton, querySlabChunk)
	}
	s := &qs.free[0]
	qs.free = qs.free[1:]
	return s.query(id, name, t, dnssecOK)
}

// Reply builds a response skeleton for the query: same ID, question, and
// opcode; RD copied; QR set. Like NewQuery it draws on the skeleton pool;
// a query with any other question count than one has its questions copied.
func (m *Message) Reply() *Message {
	s := newSkeleton()
	s.ID, s.Opcode, s.Response, s.RecursionDesired = m.ID, m.Opcode, true, m.RecursionDesired
	if len(m.Question) == 1 {
		s.q[0] = m.Question[0]
		s.Question = s.q[:]
	} else {
		s.Question = append([]Question(nil), m.Question...)
	}
	if opt := m.OPT(); opt != nil {
		s.edns(m.DNSSECOK())
	}
	return &s.Message
}

// OPT returns the EDNS(0) pseudo-record from the additional section, if any.
func (m *Message) OPT() *RR {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			return &m.Additional[i]
		}
	}
	return nil
}

// SetEDNS0 attaches (or replaces) an EDNS(0) OPT record advertising the
// given UDP payload size and DO bit. An existing option-free OPT record's
// RDATA value is reused in place, so re-arming EDNS on a recycled query
// message allocates nothing.
func (m *Message) SetEDNS0(udpSize uint16, dnssecOK bool) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			data, ok := m.Additional[i].Data.(*OPTData)
			if !ok || len(data.Options) != 0 {
				data = &OPTData{}
			}
			m.Additional[i] = optRR(udpSize, dnssecOK, data)
			return
		}
	}
	m.Additional = append(m.Additional, optRR(udpSize, dnssecOK, &OPTData{}))
}

func optRR(udpSize uint16, dnssecOK bool, data *OPTData) RR {
	var ttl uint32
	if dnssecOK {
		ttl |= 0x8000 // DO bit lives in the high bit of the TTL field's flags half
	}
	return RR{Name: ".", Type: TypeOPT, Class: Class(udpSize), TTL: ttl, Data: data}
}

// DNSSECOK reports whether the message carries an OPT record with the DO bit.
func (m *Message) DNSSECOK() bool {
	opt := m.OPT()
	return opt != nil && opt.TTL&0x8000 != 0
}

// UDPSize returns the advertised EDNS(0) UDP payload size, or 512 when no
// OPT record is present.
func (m *Message) UDPSize() int {
	opt := m.OPT()
	if opt == nil {
		return 512
	}
	if s := int(opt.Class); s >= 512 {
		return s
	}
	return 512
}

// Errors returned by message decoding.
var (
	ErrShortMessage = errors.New("dnswire: message shorter than header")
	ErrTrailingData = errors.New("dnswire: trailing bytes after message")
)

const headerLen = 12

// Pack encodes the message into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack encodes the message into wire format with name compression,
// appending to dst and returning the extended buffer. Compression offsets
// are relative to the message start (len(dst) at entry), so the encode may
// land inside a larger frame. The compression state itself is pooled:
// packing into a buffer with sufficient capacity allocates nothing.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	cmap := getCmap(len(dst))
	out, err := m.appendPack(dst, cmap)
	putCmap(cmap)
	return out, err
}

func (m *Message) appendPack(dst []byte, cmap *compressionMap) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(dst[base:], m.ID)

	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.AuthenticatedData {
		flags |= 1 << 5
	}
	if m.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.RCode & 0xf)
	binary.BigEndian.PutUint16(dst[base+2:], flags)
	binary.BigEndian.PutUint16(dst[base+4:], uint16(len(m.Question)))
	binary.BigEndian.PutUint16(dst[base+6:], uint16(len(m.Answer)))
	binary.BigEndian.PutUint16(dst[base+8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(dst[base+10:], uint16(len(m.Additional)))

	var err error
	for _, q := range m.Question {
		dst, err = packName(dst, q.Name, cmap)
		if err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(q.Type))
		dst = binary.BigEndian.AppendUint16(dst, uint16(q.Class))
	}
	for _, section := range [3][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range section {
			dst, err = packRR(dst, rr, cmap)
			if err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

func packRR(dst []byte, rr RR, cmap *compressionMap) ([]byte, error) {
	if rr.Data == nil {
		return nil, fmt.Errorf("dnswire: record %s %s has nil RDATA", rr.Name, rr.Type)
	}
	var err error
	dst, err = packName(dst, rr.Name, cmap)
	if err != nil {
		return nil, fmt.Errorf("packing owner %q: %w", rr.Name, err)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rr.Type))
	dst = binary.BigEndian.AppendUint16(dst, uint16(rr.Class))
	dst = binary.BigEndian.AppendUint32(dst, rr.TTL)
	lenOff := len(dst)
	dst = append(dst, 0, 0) // rdlength placeholder
	// Name compression inside RDATA is only allowed for the RFC 1035
	// well-known types, and of those the codec models CNAME, NS and SOA;
	// others pack names uncompressed. Each RData implementation honours
	// that by ignoring or using cmap.
	rdataCmap := cmap
	switch rr.Type {
	case TypeCNAME, TypeNS, TypeSOA:
		// compression permitted
	default:
		rdataCmap = nil
	}
	dst, err = rr.Data.pack(dst, rdataCmap)
	if err != nil {
		return nil, fmt.Errorf("packing %s RDATA for %q: %w", rr.Type, rr.Name, err)
	}
	rdlen := len(dst) - lenOff - 2
	if rdlen > 65535 {
		return nil, fmt.Errorf("dnswire: RDATA for %q exceeds 65535 bytes", rr.Name)
	}
	binary.BigEndian.PutUint16(dst[lenOff:], uint16(rdlen))
	return dst, nil
}

// PackRR appends a single record to dst without message context (no
// compression) and returns the extended slice: the canonical form of RFC
// 4034 §6.2 that DNSSEC signs, owner and RDATA names lower-cased. A caller
// that recycles dst packs without allocating; a one-shot caller passes nil.
// On error it returns nil.
func PackRR(dst []byte, rr RR) ([]byte, error) {
	return packRR(dst, rr, nil)
}

// decodedNames is the one table every decode in the process shares for the
// name strings it mints, so a name seen in an earlier message — on any
// goroutine, through any pooled scratch — is never minted again. Its bound
// covers the largest measured name set (about 18 000 distinct names on the
// serve-miss benchmark); past it a name is copied and not kept.
var decodedNames = Interner[string]{max: 1 << 15}

// decodeScratch carries per-decode reusable state: a presentation-form
// name buffer and the set of name strings minted so far in this message,
// so compression-pointer reuse of the same name yields one shared string.
type decodeScratch struct {
	names []string
	buf   []byte
}

var decScratchPool = sync.Pool{New: func() any {
	return &decodeScratch{names: make([]string, 0, 16), buf: make([]byte, 0, 256)}
}}

func putDecScratch(sc *decodeScratch) {
	// Zero the string headers so the per-message memo never pins name
	// strings from a past message, then cap-trim oversized backing arrays.
	clear(sc.names)
	sc.names = sc.names[:0]
	if cap(sc.names) > maxRecycledNames {
		sc.names = nil
	}
	sc.buf = TrimRecycled(sc.buf)
	decScratchPool.Put(sc)
}

// unpackNameCached decodes the name at msg[off:], deduplicating against
// names already decoded for this message, then reusing prev when the
// decoded bytes match it (the steady state when a recycled Message sees the
// same answers again), then taking the string decodedNames keeps for it. A
// prev that matches joins that per-message memo, so a caller that seeds the
// question slot with the query's own name gets that very string back for
// the question and for every owner spelled the same way, whatever their
// recycled slots held. A decode whose names have all been seen before
// mints zero strings.
func unpackNameCached(sc *decodeScratch, msg []byte, off int, prev string) (string, int, error) {
	b, end, err := appendName(sc.buf[:0], msg, off)
	sc.buf = b
	if err != nil {
		return "", 0, err
	}
	for _, s := range sc.names {
		if s == string(b) {
			return s, end, nil
		}
	}
	if prev != "" && prev == string(b) {
		sc.names = append(sc.names, prev)
		return prev, end, nil
	}
	s := InternString(&decodedNames, b)
	sc.names = append(sc.names, s)
	return s, end, nil
}

// UnpackInto decodes a wire-format message into m, reusing m's question and
// section slices (cap-preserving truncation) and, where types line up,
// existing RDATA values and name strings. Recycled slots are taken from
// each backing array's capacity, so decoding a message into a recycled
// Message that has held its shape before — however short the decodes in
// between — allocates nothing. Previous contents of m are overwritten;
// strings and RDATA from any earlier decode may be reused, so callers must
// not hold references into a Message across UnpackInto calls on it.
func UnpackInto(m *Message, b []byte) error {
	sc := decScratchPool.Get().(*decodeScratch)
	err := unpackInto(m, b, sc)
	putDecScratch(sc)
	return err
}

func unpackInto(m *Message, b []byte, sc *decodeScratch) error {
	if len(b) < headerLen {
		return ErrShortMessage
	}
	m.ID = binary.BigEndian.Uint16(b)
	flags := binary.BigEndian.Uint16(b[2:])
	m.Response = flags&(1<<15) != 0
	m.Opcode = Opcode(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.AuthenticatedData = flags&(1<<5) != 0
	m.CheckingDisabled = flags&(1<<4) != 0
	m.RCode = RCode(flags & 0xf)

	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	ns := int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))

	off := headerLen
	var err error
	// Capacity, not length: a short message between two long ones must not
	// cost the long shape its names and RDATA.
	prevQ := m.Question[:cap(m.Question)]
	m.Question = m.Question[:0]
	for i := 0; i < qd; i++ {
		// Read the recycled slot before append overwrites it in place.
		var prev Question
		if i < len(prevQ) {
			prev = prevQ[i]
		}
		var q Question
		q.Name, off, err = unpackNameCached(sc, b, off, prev.Name)
		if err != nil {
			return fmt.Errorf("unpacking question %d: %w", i, err)
		}
		if off+4 > len(b) {
			return ErrTruncatedName
		}
		q.Type = Type(binary.BigEndian.Uint16(b[off:]))
		q.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		m.Question = append(m.Question, q)
	}
	sections := [3]*[]RR{&m.Answer, &m.Authority, &m.Additional}
	counts := [3]int{an, ns, ar}
	for si, count := range counts {
		sp := sections[si]
		prevS := (*sp)[:cap(*sp)]
		*sp = (*sp)[:0]
		for i := 0; i < count; i++ {
			var prev RR
			if i < len(prevS) {
				prev = prevS[i]
			}
			var rr RR
			rr, off, err = unpackRRInto(b, off, prev, sc)
			if err != nil {
				return fmt.Errorf("unpacking record %d of section %d: %w", i, si, err)
			}
			*sp = append(*sp, rr)
		}
	}
	// Extended RCODE from OPT (high 8 bits live in the OPT TTL).
	if opt := m.OPT(); opt != nil {
		m.RCode |= RCode(opt.TTL>>24&0xff) << 4
	}
	return nil
}

func unpackRRInto(b []byte, off int, prev RR, sc *decodeScratch) (RR, int, error) {
	var rr RR
	var err error
	rr.Name, off, err = unpackNameCached(sc, b, off, prev.Name)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(b) {
		return rr, 0, ErrTruncatedName
	}
	rr.Type = Type(binary.BigEndian.Uint16(b[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(b[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(b[off+4:])
	rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
	off += 10
	if off+rdlen > len(b) {
		return rr, 0, fmt.Errorf("dnswire: RDATA truncated for %q", rr.Name)
	}
	rr.Data, err = unpackRDataInto(rr.Type, b, off, rdlen, prev.Data, sc)
	if err != nil {
		return rr, 0, err
	}
	return rr, off + rdlen, nil
}

// String renders the message in dig-like presentation form.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; opcode: %d, status: %s, id: %d\n", m.Opcode, m.RCode, m.ID)
	fmt.Fprintf(&sb, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Response, "qr"}, {m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
		{m.AuthenticatedData, "ad"}, {m.CheckingDisabled, "cd"},
	} {
		if f.on {
			sb.WriteString(" " + f.name)
		}
	}
	sb.WriteString("\n")
	for _, q := range m.Question {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, sec := range []struct {
		name string
		rrs  []RR
	}{{"ANSWER", m.Answer}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s:\n", sec.name)
		for _, rr := range sec.rrs {
			if rr.Type == TypeOPT {
				continue
			}
			sb.WriteString(rr.String() + "\n")
		}
	}
	return sb.String()
}

// FNV1a is the 64-bit FNV-1a hash of b, the same value as hash/fnv's
// New64a after one Write, without the hash.Hash value or the copy of a
// string argument: it allocates nothing.
func FNV1a[T ~string | ~[]byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}
