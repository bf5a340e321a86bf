package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// Cache is a sharded TTL+LRU answer cache keyed by (qname, qtype, DO bit).
// Shard selection is fnv-based, each shard is independently bounded and
// LRU-evicted, and expiry runs on the virtual clock, so a fleet of
// frontends sharing one Cache behaves like an anycast pod with a common
// answer store: whichever frontend and protocol a stub lands on, a fresh
// answer from a sibling is served without touching the recursor.
//
// Entries move through the lifecycle documented in doc.go: fresh until
// their TTL expires, then (with a non-zero StaleWindow) stale and
// servable under RFC 8767 when the upstream cannot answer, then evicted.
// Negative answers (NXDOMAIN/NODATA) are first-class entries retained for
// their RFC 2308 SOA-minimum TTL, capped by DefaultMaxNegativeTTL.
type Cache struct {
	clock *simnet.Clock
	cfg   CacheConfig

	shards []*cacheShard

	// slabMu guards slab and arena, the chunks growing shards carve new
	// entries and their buffers from. It is taken only when a shard grows,
	// never on a probe.
	slabMu sync.Mutex
	slab   []cacheEntry
	arena  []byte
}

// CacheConfig sets the cache geometry and lifecycle policy. The zero
// value selects the default geometry with serve-stale and refresh-ahead
// disabled — the pre-RFC 8767 behavior.
type CacheConfig struct {
	// Shards and ShardCapacity set the geometry; zero selects the
	// defaults.
	Shards        int
	ShardCapacity int
	// StaleWindow is how long past TTL expiry an entry stays resident and
	// servable under RFC 8767 serve-stale. Zero disables serve-stale:
	// entries are dropped at TTL expiry.
	StaleWindow time.Duration
	// RefreshAhead arms a prefetch once a fresh entry has consumed this
	// fraction of its TTL: the next hit past the threshold is still served
	// from cache but reports NeedsRefresh so the frontend can refresh the
	// entry before it ever goes stale. Zero disables prefetch.
	RefreshAhead float64
}

// Default cache geometry and lifecycle bounds.
const (
	DefaultShards        = 16
	DefaultShardCapacity = 1024
	// DefaultStaleTTL caps the TTL stamped on records of a stale answer
	// (RFC 8767 §4 recommends 30 seconds).
	DefaultStaleTTL = 30
	// DefaultMaxNegativeTTL caps how long negative answers are retained,
	// however large their SOA minimum (RFC 2308 §5 advises bounding
	// negative retention).
	DefaultMaxNegativeTTL = 3 * time.Hour
)

// negativeTTL bounds how long answers without records are retained when
// the authority section carries no SOA to derive a TTL from.
const negativeTTL = 30 * time.Second

// EntryState is where a cache lookup landed in the entry lifecycle.
type EntryState int

const (
	// StateMiss: no entry, or the entry aged past TTL + StaleWindow and
	// was evicted by the lookup.
	StateMiss EntryState = iota
	// StateFresh: within TTL; the answer is served directly.
	StateFresh
	// StateStale: past TTL but within StaleWindow; the answer may be
	// served under RFC 8767 if the upstream cannot produce a fresh one.
	StateStale
)

// String names the state for stats output.
func (s EntryState) String() string {
	switch s {
	case StateFresh:
		return "fresh"
	case StateStale:
		return "stale"
	default:
		return "miss"
	}
}

// Lookup is the result of a lifecycle-aware cache probe.
type Lookup struct {
	// State classifies the probe; Body is non-nil only for Fresh. A
	// stale probe carries no body — the caller is expected to consult
	// the upstream first and materialize the stale answer with StaleWire
	// only if that fails, so the common refresh path never pays the copy.
	State EntryState
	// Body is the response wire image with the query ID patched in and
	// TTLs aged by elapsed virtual time (Fresh only).
	Body []byte
	// Negative marks RFC 2308 negative entries (NXDOMAIN or NODATA).
	Negative bool
	// NeedsRefresh is set on the first fresh hit past the refresh-ahead
	// threshold; the caller should refresh the entry from upstream.
	NeedsRefresh bool
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[Key]*cacheEntry
	// head is most recently used, tail least; entries form a doubly
	// linked list so Probe/Put/evict are all O(1).
	head, tail *cacheEntry
	capacity   int
	// negEntries tracks resident negative entries so Stats is O(shards),
	// not a walk of every LRU list.
	negEntries int

	evictions, expirations uint64
}

// cacheEntry holds the response in one buffer: the packed wire image,
// buf[:wireLen], then one TTL slot per record, precomputed at store time. A
// hit is then one copy, an ID patch, and in-place TTL rewrites — no message
// encode on the hot path. The buffer belongs to the entry: a replace
// overwrites it in place and an eviction hands it, with the struct, to the
// answer that displaced it; either makes a new one only when the answer
// does not fit. A growing shard carves the struct from the cache's slab and
// the buffer, capacity capped at its length, from the cache's arena, so it
// pays no allocation of its own per answer.
type cacheEntry struct {
	key Key
	buf []byte
	// storedAt, expires and refreshAt are virtual Unix nanoseconds.
	// refreshAt is when a fresh hit starts reporting NeedsRefresh;
	// refreshing latches after the first such hit so one entry generation
	// arms at most one prefetch.
	storedAt, expires, refreshAt int64
	prev, next                   *cacheEntry
	wireLen                      uint32
	// negative marks RFC 2308 entries (NXDOMAIN or empty answers).
	negative, refreshing bool
}

// A TTL slot is 8 bytes: the big-endian byte offset of one record's TTL
// field in the wire image, then the big-endian TTL it was stored with.
const slotSize = 8

// appendBody appends the entry's wire image to dst with id patched in and
// every TTL aged by elapsed seconds, then capped at ceiling, and returns
// the appended body.
func (e *cacheEntry) appendBody(dst []byte, id uint16, elapsed, ceiling uint32) []byte {
	base := len(dst)
	out := append(dst, e.buf[:e.wireLen]...)
	binary.BigEndian.PutUint16(out[base:], id)
	for t := e.buf[e.wireLen:]; len(t) >= slotSize; t = t[slotSize:] {
		off, stored := binary.BigEndian.Uint32(t), binary.BigEndian.Uint32(t[4:])
		binary.BigEndian.PutUint32(out[base+int(off):], min(stored-min(stored, elapsed), ceiling))
	}
	return out[base:]
}

// CacheStats aggregates what the cache owns across shards: its residents
// and the entries it dropped. Hits, stale serves and prefetches are the
// probing Frontend's counters (FrontendStats).
type CacheStats struct {
	Entries int
	// NegativeEntries is the resident RFC 2308 entry count.
	NegativeEntries int
	// Evictions counts LRU victims; Expirations counts entries a probe
	// found past TTL + StaleWindow and dropped.
	Evictions   uint64
	Expirations uint64
}

// NewCacheWith creates a cache from its geometry and lifecycle
// configuration; zero values select the default geometry and leave
// serve-stale and prefetch disabled.
func NewCacheWith(clock *simnet.Clock, cfg CacheConfig) *Cache {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = DefaultShardCapacity
	}
	c := &Cache{clock: clock, cfg: cfg, shards: make([]*cacheShard, cfg.Shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: map[Key]*cacheEntry{}, capacity: cfg.ShardCapacity}
	}
	return c
}

// Config returns the cache's resolved lifecycle configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Key identifies a cache entry by what its answer depends on and what a
// reply echoes of its question: canonical qname, qtype and qclass,
// whether the query carried EDNS(0), and its DO bit (responses differ —
// an OPT record, RRSIGs present or not). It is a comparable value type
// used directly as the shard map key, so building one for a probe
// allocates nothing when the question name is already canonical — the
// steady state on the query hot path. The name string is shared with the
// question that produced it; the cache never mutates it. Only the name,
// type and DO feed the shard hash.
type Key struct {
	Name   string
	Type   dnswire.Type
	Class  dnswire.Class
	DO     bool
	NoEDNS bool
}

// cacheKey builds the lookup key for a one-question query.
func cacheKey(q *dnswire.Message) Key {
	question := q.Question[0]
	return Key{Name: dnswire.CanonicalName(question.Name), Type: question.Type, Class: question.Class,
		DO: q.DNSSECOK(), NoEDNS: q.OPT() == nil}
}

// fnv32a constants (hash/fnv), inlined so shard selection neither
// allocates a hash.Hash nor converts the key to bytes.
const (
	fnv32Offset = 2166136261
	fnv32Prime  = 16777619
)

func (k Key) shardHash() uint32 {
	h := uint32(fnv32Offset)
	for i := 0; i < len(k.Name); i++ {
		h ^= uint32(k.Name[i])
		h *= fnv32Prime
	}
	h ^= uint32(k.Type) & 0xff
	h *= fnv32Prime
	h ^= uint32(k.Type) >> 8
	h *= fnv32Prime
	if k.DO {
		h ^= 1
		h *= fnv32Prime
	}
	return h
}

func (c *Cache) shardFor(key Key) *cacheShard {
	// Reduce in uint32: int(hash) is negative on 32-bit platforms when
	// the hash has its top bit set.
	return c.shards[key.shardHash()%uint32(len(c.shards))]
}

// Probe is the lifecycle-aware lookup: it classifies the entry as fresh,
// stale, or missing, and returns a servable wire image for a fresh entry:
// the stored response with the given query ID patched in and every TTL
// aged by the virtual time elapsed since storing. A stale probe carries
// no body: the caller is expected to consult the upstream, and to serve
// the stale body (StaleWire) only when that fails. Entries past TTL +
// StaleWindow are evicted by the probe.
//
// On a fresh hit the wire image is appended to dst (Body aliases dst's
// backing array, so a caller handing in recycled scratch serves the hit
// copy-free); a nil dst allocates, preserving the old behavior.
func (c *Cache) Probe(key Key, id uint16, dst []byte) Lookup {
	now := c.clock.Now().UnixNano()
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[key]
	if !found {
		return Lookup{State: StateMiss}
	}
	if e.expires+int64(c.cfg.StaleWindow) <= now {
		s.remove(e)
		delete(s.entries, key)
		if e.negative {
			s.negEntries--
		}
		// The slot stays in its slab chunk: let go of what it points at.
		*e = cacheEntry{}
		s.expirations++
		return Lookup{State: StateMiss}
	}
	s.moveToFront(e)
	if e.expires <= now {
		// Past TTL but within the stale window: report stale so the
		// caller consults the upstream; StaleWire materializes the body
		// only if that fails.
		return Lookup{State: StateStale, Negative: e.negative}
	}
	l := Lookup{State: StateFresh, Negative: e.negative}
	if c.cfg.RefreshAhead > 0 && !e.refreshing && e.refreshAt <= now {
		e.refreshing = true
		l.NeedsRefresh = true
	}
	elapsed := uint32(time.Duration(now-e.storedAt) / time.Second)
	l.Body = e.appendBody(dst, id, elapsed, math.MaxUint32)
	return l
}

// StaleWire materializes the stale answer a prior Probe reported, with
// the query ID patched in and every TTL capped at DefaultStaleTTL per RFC
// 8767. The entry is re-evaluated under the shard lock: if a sibling
// refreshed it meanwhile the (now fresh) body is still served with capped
// TTLs — conservative but correct — and if it vanished (LRU pressure) ok
// is false and the caller has nothing to serve.
// The stale body is appended to dst under the same aliasing contract as
// Probe; nil dst allocates a fresh copy.
func (c *Cache) StaleWire(key Key, id uint16, dst []byte) (body []byte, ok bool) {
	now := c.clock.Now().UnixNano()
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[key]
	if !found || e.expires+int64(c.cfg.StaleWindow) <= now {
		return nil, false
	}
	return e.appendBody(dst, id, 0, DefaultStaleTTL), true
}

// Put stores a response. Uncacheable responses (SERVFAIL and friends) are
// ignored; the retention window is the answer's minimum TTL, or the RFC
// 2308 SOA-minimum (capped by DefaultMaxNegativeTTL) for negative answers.
// Put packs m into a borrowed buffer; the frontend, which has already
// packed the answer for its envelope, inserts those bytes directly.
func (c *Cache) Put(key Key, m *dnswire.Message) {
	bp := dnswire.GetWireBuf()
	defer dnswire.PutWireBuf(bp)
	wire, err := m.AppendPack(*bp)
	if err != nil {
		return
	}
	*bp = wire
	c.insert(key, m, wire)
}

// insert stores m under key as the wire image it was packed to. The cache
// copies wire, with its TTL slots behind it, into the entry's buffer, so the
// caller's buffer stays the caller's. The wire is walked and validated
// before any entry is touched; after that a replace reuses the entry's own
// buffer and an insert at capacity reuses the LRU victim's struct and
// buffer, so only a growing shard allocates: now and then a slab or arena
// chunk.
func (c *Cache) insert(key Key, m *dnswire.Message, wire []byte) {
	ttl, negative, ok := cacheTTL(m)
	if !ok || ttl <= 0 {
		return
	}
	if negative {
		ttl = min(ttl, DefaultMaxNegativeTTL)
	}
	// Room for the records of any usual answer; a longer walk spills to
	// the heap.
	var stack [16 * slotSize]byte
	slots, err := appendTTLSlots(stack[:0], wire)
	if err != nil {
		return
	}
	now := c.clock.Now().UnixNano()
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(wire) + len(slots)
	e, replace := s.entries[key]
	if !replace && len(s.entries) >= s.capacity {
		e = s.tail
		delete(s.entries, e.key)
		s.evictions++
	}
	if e == nil {
		e = c.newEntry(n)
	} else {
		s.remove(e)
		if e.negative {
			s.negEntries--
		}
	}
	e.key = key
	s.entries[key] = e
	s.pushFront(e)
	if negative {
		s.negEntries++
	}
	if cap(e.buf) < n {
		e.buf = make([]byte, 0, n)
	}
	e.buf = append(append(e.buf[:0], wire...), slots...)
	e.wireLen = uint32(len(wire))
	e.negative = negative
	e.storedAt, e.expires = now, now+int64(ttl)
	e.refreshAt, e.refreshing = 0, false
	if c.cfg.RefreshAhead > 0 {
		e.refreshAt = now + int64(time.Duration(c.cfg.RefreshAhead*float64(ttl)))
	}
}

// newEntry carves a zeroed entry from the cache-wide slab, whose chunks
// double from 16 to 256 entries, and gives it an empty buffer of capacity n
// carved from the cache-wide arena, whose chunks double from 1 KiB to
// 16 KiB (an answer larger than that gets a chunk of its own size). The
// carve is a three-index slice, so an append past n moves the buffer
// rather than writing on a neighbour's bytes. Slab and arena are one for
// all shards: a fresh fleet replica's shards hold a few dozen entries
// each, and per-shard chunks would leave most of every chunk's tail
// unused.
func (c *Cache) newEntry(n int) *cacheEntry {
	c.slabMu.Lock()
	defer c.slabMu.Unlock()
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]cacheEntry, 0, min(max(2*cap(c.slab), 16), 256))
	}
	c.slab = c.slab[:len(c.slab)+1]
	e := &c.slab[len(c.slab)-1]
	if cap(c.arena)-len(c.arena) < n {
		c.arena = make([]byte, 0, max(min(max(2*cap(c.arena), 1<<10), 16<<10), n))
	}
	at := len(c.arena)
	c.arena = c.arena[:at+n]
	e.buf = c.arena[at : at : at+n]
	return e
}

// appendTTLSlots walks a packed message once and appends to dst one TTL
// slot (slotSize bytes: the field's offset, then its value) for every
// resource record, excluding the OPT pseudo-record (its TTL field holds
// EDNS flags, not a TTL).
func appendTTLSlots(dst, wire []byte) ([]byte, error) {
	if len(wire) < 12 {
		return nil, dnswire.ErrShortMessage
	}
	qd := int(binary.BigEndian.Uint16(wire[4:]))
	rrs := int(binary.BigEndian.Uint16(wire[6:])) +
		int(binary.BigEndian.Uint16(wire[8:])) +
		int(binary.BigEndian.Uint16(wire[10:]))
	pos := 12
	var err error
	for i := 0; i < qd; i++ {
		if pos, err = skipName(wire, pos); err != nil {
			return nil, err
		}
		pos += 4 // qtype + qclass
	}
	for i := 0; i < rrs; i++ {
		if pos, err = skipName(wire, pos); err != nil {
			return nil, err
		}
		if pos+10 > len(wire) {
			return nil, errTruncatedRR
		}
		if dnswire.Type(binary.BigEndian.Uint16(wire[pos:])) != dnswire.TypeOPT {
			dst = binary.BigEndian.AppendUint32(dst, uint32(pos+4))
			dst = append(dst, wire[pos+4:pos+8]...)
		}
		pos += 10 + int(binary.BigEndian.Uint16(wire[pos+8:]))
		if pos > len(wire) {
			return nil, errTruncatedRR
		}
	}
	return dst, nil
}

var errTruncatedRR = errors.New("transport: truncated record in wire image")

// skipName advances past a (possibly compressed) domain name.
func skipName(wire []byte, pos int) (int, error) {
	for {
		if pos >= len(wire) {
			return 0, errTruncatedRR
		}
		b := wire[pos]
		switch {
		case b == 0:
			return pos + 1, nil
		case b&0xc0 == 0xc0: // compression pointer ends the name
			return pos + 2, nil
		default:
			pos += 1 + int(b)
		}
	}
}

// Len returns the number of resident entries (including not-yet-swept
// expired ones).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Flush drops every entry, and the slab and arena they were carved from.
func (c *Cache) Flush() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = map[Key]*cacheEntry{}
		s.head, s.tail = nil, nil
		s.negEntries = 0
		s.mu.Unlock()
	}
	c.slabMu.Lock()
	c.slab, c.arena = nil, nil
	c.slabMu.Unlock()
}

// Stats aggregates the resident and dropped entry counts across shards.
func (c *Cache) Stats() CacheStats {
	var out CacheStats
	for _, s := range c.shards {
		s.mu.Lock()
		out.Entries += len(s.entries)
		out.NegativeEntries += s.negEntries
		out.Evictions += s.evictions
		out.Expirations += s.expirations
		s.mu.Unlock()
	}
	return out
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}

// minAnswerTTL returns the smallest TTL among answer records, excluding
// the OPT pseudo-record (whose TTL field holds EDNS flags).
func minAnswerTTL(m *dnswire.Message) (uint32, bool) {
	ttl, have := uint32(0), false
	for _, rr := range m.Answer {
		if rr.Type == dnswire.TypeOPT {
			continue
		}
		if !have || rr.TTL < ttl {
			ttl, have = rr.TTL, true
		}
	}
	return ttl, have
}

// cacheTTL derives the retention window and negativity class: the minimum
// answer TTL for positive answers; for negative answers (NXDOMAIN, or
// NOERROR with no answer records — NODATA) the RFC 2308 negative TTL,
// min(SOA TTL, SOA minimum), falling back to a fixed bound when the
// authority section carries no SOA; nothing for uncacheable RCodes.
func cacheTTL(m *dnswire.Message) (ttl time.Duration, negative, ok bool) {
	if m.RCode != dnswire.RCodeNoError && m.RCode != dnswire.RCodeNXDomain {
		return 0, false, false
	}
	if ttl, have := minAnswerTTL(m); have && m.RCode == dnswire.RCodeNoError {
		return time.Duration(ttl) * time.Second, false, true
	}
	for _, rr := range m.Authority {
		if soa, ok := rr.Data.(*dnswire.SOAData); ok {
			min := soa.Minimum
			if rr.TTL < min {
				min = rr.TTL
			}
			return time.Duration(min) * time.Second, true, true
		}
	}
	return negativeTTL, true, true
}
