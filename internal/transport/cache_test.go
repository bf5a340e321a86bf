package transport

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// answerOf builds a response to (name, A) carrying one A record per TTL;
// no TTLs makes it a NODATA answer with an SOA (TTL 50, minimum 40).
func answerOf(name string, ttls ...uint32) *dnswire.Message {
	resp := dnswire.NewQuery(1, name, dnswire.TypeA, true).Reply()
	for i, ttl := range ttls {
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl,
			Data: &dnswire.AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	if len(ttls) == 0 {
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name: "test.", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 50,
			Data: &dnswire.SOAData{MName: "ns1.test.", RName: "hostmaster.test.", Serial: 1, Minimum: 40},
		})
	}
	return resp
}

func testKey(i int) Key {
	return Key{Name: fmt.Sprintf("n%02d.test.", i), Type: dnswire.TypeA, DO: true}
}

// An insert allocates only while its shard is growing: at capacity the LRU
// victim's struct and buffers carry the incoming answer, and a replace
// reuses the entry's own.
func TestCacheInsertAllocatesNothingWhenFullOrReplacing(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 1, ShardCapacity: 8})
	keys := make([]Key, 32)
	msgs := make([]*dnswire.Message, len(keys))
	for i := range keys {
		keys[i] = testKey(i)
		msgs[i] = answerOf(keys[i].Name, 300, 200)
		cache.Put(keys[i], msgs[i])
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		cache.Put(keys[i%len(keys)], msgs[i%len(keys)])
		i++
	}); n != 0 {
		t.Errorf("insert with eviction on a full 1×8 cache: %v allocs, want 0", n)
	}
	if st := cache.Stats(); st.Entries != 8 || st.Evictions < 200 {
		t.Fatalf("the inserts did not evict: %+v", st)
	}
	resident := cache.shards[0].head.key
	if n := testing.AllocsPerRun(200, func() { cache.Put(resident, msgs[0]) }); n != 0 {
		t.Errorf("replacing a resident entry: %v allocs, want 0", n)
	}
}

// A growing shard pays no allocation of its own per answer: the entry is
// carved from the cache-wide slab and its buffer, TTL slots behind the
// wire, from the cache-wide arena. What is left over is slab and arena
// chunks and the shard maps' growth. One default cache takes a fleet
// replica's few hundred answers, then a campaign day's thousands more. The
// first batch carries each shard's early map growth and the first, small
// chunks: about 0.27 allocations per insert, against 0.02 for the second.
func TestGrowingCacheAllocatesOnlyChunks(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := answerOf("grow.test.", 300, 200)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{})
	next := 0
	for _, batch := range []struct {
		n       int
		ceiling float64
	}{{401, 0.3}, {12_000, 0.03}} {
		keys := make([]Key, batch.n)
		for i := range keys {
			keys[i] = Key{Name: fmt.Sprintf("g%05d.test.", next), Type: dnswire.TypeA, DO: true}
			next++
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			cache.insert(k, m, wire)
		}
		runtime.ReadMemStats(&after)
		if cache.size() != next {
			t.Fatalf("%d inserts left %d entries", next, cache.size())
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(batch.n)
		if per > batch.ceiling {
			t.Errorf("%d inserts into a growing cache: %.3f allocations each, ceiling %v", batch.n, per, batch.ceiling)
		} else {
			t.Logf("%d inserts into a growing cache: %.3f allocations each", batch.n, per)
		}
	}
}

// Growing shards carve their entries from one slab. Inserts into every
// shard at once, with Flushes dropping the slab among them, must each get an
// entry of their own: every key still resident serves its own answer.
func TestCacheConcurrentGrowthAndFlush(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{})
	const workers, perWorker = 4, 300
	keys := make([][]Key, workers)
	wires := make([][][]byte, workers)
	for w := range keys {
		for i := 0; i < perWorker; i++ {
			k := Key{Name: fmt.Sprintf("w%d-%03d.test.", w, i), Type: dnswire.TypeA, DO: true}
			wire, err := answerOf(k.Name, 300).Pack()
			if err != nil {
				t.Fatal(err)
			}
			keys[w], wires[w] = append(keys[w], k), append(wires[w], wire)
		}
	}
	check := func(w, i int) error {
		got := cache.probe(keys[w][i], 7, nil)
		if got.State == stateFresh && !bytes.Equal(got.Body[2:], wires[w][i][2:]) {
			return fmt.Errorf("%s serves another answer: %x", keys[w][i].Name, got.Body)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := answerOf("any.test.", 300) // insert reads only the TTL from m
			for i, k := range keys[w] {
				cache.insert(k, m, wires[w][i])
				if err := check(w, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			cache.Flush()
		}
	}()
	wg.Wait()
	for w := range keys {
		for i := range keys[w] {
			if err := check(w, i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The arena grows only while the cache does. On a full cache an insert
// reuses the LRU victim's buffer and a replace the entry's own, and an
// answer too large for either gets a buffer of its own: churn through
// evictions and through replacements by ever larger answers carves nothing,
// so a cache's resident bytes stay bounded by what it held when it filled.
func TestFullCacheChurnNeverGrowsArena(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 1, ShardCapacity: 8})
	ttls := slices.Repeat([]uint32{300}, 10)
	for i := 0; i < 8; i++ {
		cache.Put(testKey(i), answerOf(testKey(i).Name, 300))
	}
	arena := cache.arena
	for i := 8; i < 200; i++ {
		cache.Put(testKey(i), answerOf(testKey(i).Name, ttls[:1+i%4]...))
	}
	for n := 5; n <= len(ttls); n++ {
		for i := 192; i < 200; i++ {
			cache.Put(testKey(i), answerOf(testKey(i).Name, ttls[:n]...))
		}
	}
	if st := cache.Stats(); st.Entries != 8 || st.Evictions != 192 {
		t.Fatalf("not the churn the test means: %+v", st)
	}
	if unsafe.SliceData(cache.arena) != unsafe.SliceData(arena) || len(cache.arena) != len(arena) || cap(cache.arena) != cap(arena) {
		t.Errorf("churn on a full cache grew the arena: %d of %d bytes carved, was %d of %d",
			len(cache.arena), cap(cache.arena), len(arena), cap(arena))
	}
}

// Entries carved from one arena chunk sit side by side, each buffer's
// capacity ending where the next one's bytes begin. Writing every entry's
// buffer up to its capacity, and appending past it, must leave every
// neighbour serving what it served before.
func TestArenaNeighboursSurviveFullBuffers(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 4, ShardCapacity: 64})
	ttls := []uint32{300, 200, 100, 400, 500}
	const n = 40
	for i := 0; i < n; i++ {
		cache.Put(testKey(i), answerOf(testKey(i).Name, ttls[:1+i%len(ttls)]...))
	}
	// Replaced by shorter answers, some buffers keep spare capacity.
	for i := 0; i < n; i += 3 {
		cache.Put(testKey(i), answerOf(testKey(i).Name, 300))
	}
	want := make([][]byte, n)
	for i := range want {
		want[i] = cache.probe(testKey(i), 7, nil).Body
	}
	type span struct{ start, end uintptr }
	var spans []span
	for _, s := range cache.shards {
		for e := s.head; e != nil; e = e.next {
			start := uintptr(unsafe.Pointer(unsafe.SliceData(e.buf)))
			spans = append(spans, span{start, start + uintptr(cap(e.buf))})
			full := e.buf[:cap(e.buf)]
			for j := len(e.buf); j < len(full); j++ {
				full[j] = 0xff
			}
			_ = append(full, 0xff)
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	adjacent, overlaps := 0, 0
	for i := 1; i < len(spans); i++ {
		if spans[i-1].end > spans[i].start {
			overlaps++
		}
		if spans[i-1].end >= spans[i].start {
			adjacent++
		}
	}
	if adjacent == 0 {
		t.Fatal("no two entry buffers are neighbours: the test exercises no carve")
	}
	if overlaps > 0 {
		t.Errorf("%d entry buffers reach into the next one's bytes", overlaps)
	}
	for i := range want {
		if got := cache.probe(testKey(i), 7, nil); got.State != stateFresh || !bytes.Equal(got.Body, want[i]) {
			t.Errorf("%s changed when its neighbours filled their buffers:\n got %x\nwant %x", testKey(i).Name, got.Body, want[i])
		}
	}
}

// A wire image the TTL walk rejects must leave the cache as it was: the
// entry already stored for the key keeps serving, and on a full shard
// nothing is evicted to make room for an answer that never arrives.
func TestCacheRejectedWireLeavesEntriesIntact(t *testing.T) {
	_, clock := testNet()
	cache := NewCacheWith(clock, CacheConfig{Shards: 1, ShardCapacity: 2})
	cache.Put(testKey(0), answerOf(testKey(0).Name, 300))
	cache.Put(testKey(1), answerOf(testKey(1).Name, 300))
	want := cache.probe(testKey(0), 7, nil).Body

	m := answerOf(testKey(0).Name, 100, 100)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	cache.insert(testKey(0), m, wire[:len(wire)-3]) // last record truncated
	cache.insert(testKey(2), m, wire[:len(wire)-3])
	cache.insert(testKey(2), m, wire[:8]) // shorter than a header

	if got := cache.probe(testKey(0), 7, nil); got.State != stateFresh || !bytes.Equal(got.Body, want) {
		t.Errorf("entry changed by a rejected replace: state %v\n got %x\nwant %x", got.State, got.Body, want)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Errorf("a rejected insert evicted: %+v", st)
	}
	if cache.probe(testKey(2), 7, nil).State != stateMiss {
		t.Error("a rejected wire was stored")
	}
}

// modelCache is the naive reference for one cache shard: entries keep the
// message itself, the LRU is a slice, and a served body is produced by
// rewriting the TTLs on a copy of the message and encoding it again — none
// of the wire-offset bookkeeping or buffer reuse of the real thing.
type modelCache struct {
	cfg   CacheConfig
	lru   []*modelEntry // most recently used first
	stats CacheStats
}

type modelEntry struct {
	key               Key
	msg               *dnswire.Message
	negative          bool
	storedAt, expires time.Time
}

func (mc *modelCache) find(key Key) int {
	for i, e := range mc.lru {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (mc *modelCache) drop(i int) { mc.lru = append(mc.lru[:i], mc.lru[i+1:]...) }

func (mc *modelCache) touch(i int) *modelEntry {
	e := mc.lru[i]
	mc.drop(i)
	mc.lru = append([]*modelEntry{e}, mc.lru...)
	return e
}

func (mc *modelCache) put(now time.Time, key Key, m *dnswire.Message) {
	if m.RCode != dnswire.RCodeNoError && m.RCode != dnswire.RCodeNXDomain {
		return
	}
	e := &modelEntry{key: key, msg: m, storedAt: now}
	var ttl time.Duration
	if len(m.Answer) > 0 && m.RCode == dnswire.RCodeNoError {
		minTTL := m.Answer[0].TTL
		for _, rr := range m.Answer {
			minTTL = min(minTTL, rr.TTL)
		}
		ttl = time.Duration(minTTL) * time.Second
	} else {
		e.negative = true
		soa := m.Authority[0]
		ttl = time.Duration(min(soa.TTL, soa.Data.(*dnswire.SOAData).Minimum)) * time.Second
		ttl = min(ttl, DefaultMaxNegativeTTL)
	}
	if ttl <= 0 {
		return
	}
	e.expires = now.Add(ttl)
	if i := mc.find(key); i >= 0 {
		mc.drop(i)
	} else if len(mc.lru) == mc.cfg.ShardCapacity {
		mc.drop(len(mc.lru) - 1)
		mc.stats.Evictions++
	}
	mc.lru = append([]*modelEntry{e}, mc.lru...)
}

// body encodes e's message with the query ID and each record's TTL mapped
// through ttl (the OPT pseudo-record excepted).
func (e *modelEntry) body(t *testing.T, id uint16, ttl func(uint32) uint32) []byte {
	t.Helper()
	m := *e.msg
	m.ID = id
	for _, sec := range []*[]dnswire.RR{&m.Answer, &m.Authority, &m.Additional} {
		rrs := append([]dnswire.RR(nil), *sec...)
		for i := range rrs {
			if rrs[i].Type != dnswire.TypeOPT {
				rrs[i].TTL = ttl(rrs[i].TTL)
			}
		}
		*sec = rrs
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func (mc *modelCache) probe(t *testing.T, now time.Time, key Key, id uint16) lookup {
	t.Helper()
	i := mc.find(key)
	if i >= 0 && !mc.lru[i].expires.Add(mc.cfg.StaleWindow).After(now) {
		mc.drop(i)
		mc.stats.Expirations++
		i = -1
	}
	if i < 0 {
		return lookup{State: stateMiss}
	}
	e := mc.touch(i)
	if !e.expires.After(now) {
		return lookup{State: stateStale, Negative: e.negative}
	}
	elapsed := uint32(now.Sub(e.storedAt) / time.Second)
	age := func(ttl uint32) uint32 {
		if ttl > elapsed {
			return ttl - elapsed
		}
		return 0
	}
	return lookup{State: stateFresh, Negative: e.negative, Body: e.body(t, id, age)}
}

func (mc *modelCache) staleWire(t *testing.T, now time.Time, key Key, id uint16) ([]byte, bool) {
	t.Helper()
	i := mc.find(key)
	if i < 0 || !mc.lru[i].expires.Add(mc.cfg.StaleWindow).After(now) {
		return nil, false
	}
	capTTL := func(ttl uint32) uint32 { return min(ttl, DefaultStaleTTL) }
	return mc.lru[i].body(t, id, capTTL), true
}

// TestCacheMatchesReferenceModel drives one small shard and the naive model
// through the same few hundred mixed steps — inserts of answers of three
// lengths and of uncacheable ones, probes, stale serves, clock advances
// across TTL and stale-window edges — and requires, after every step, the
// same lookup result down to the served bytes (TTL aging, ID patch, stale
// cap), the same counters, and the same residents in the same LRU order
// (so every eviction picked the model's victim). Entries change hands with
// their buffers here, so a short answer is regularly served out of a
// longer victim's storage; the first steps script exactly that, and then
// walk the clock to the negative-retention cap.
func TestCacheMatchesReferenceModel(t *testing.T) {
	_, clock := testNet()
	cfg := CacheConfig{Shards: 1, ShardCapacity: 4, StaleWindow: 60 * time.Second}
	cache := NewCacheWith(clock, cfg)
	model := &modelCache{cfg: cfg}

	shapes := []func(name string) *dnswire.Message{
		func(name string) *dnswire.Message { return answerOf(name) },
		func(name string) *dnswire.Message { return answerOf(name, 30) },
		func(name string) *dnswire.Message { return answerOf(name, 90, 20, 45, 300) },
		func(name string) *dnswire.Message {
			m := answerOf(name, 30)
			m.RCode = dnswire.RCodeServFail
			return m
		},
		func(name string) *dnswire.Message {
			// A negative answer whose SOA outlives DefaultMaxNegativeTTL.
			m := answerOf(name)
			m.Authority[0].TTL = 5 * 3600
			m.Authority[0].Data.(*dnswire.SOAData).Minimum = 4 * 3600
			return m
		},
	}
	check := func(step string) {
		t.Helper()
		want := model.stats
		want.Entries = len(model.lru)
		for _, e := range model.lru {
			if e.negative {
				want.NegativeEntries++
			}
		}
		if got := cache.Stats(); got != want {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", step, got, want)
		}
		e := cache.shards[0].head
		for i, me := range model.lru {
			if e == nil || e.key != me.key {
				t.Fatalf("%s: LRU position %d holds %v, the model has %v", step, i, e, me.key)
			}
			e = e.next
		}
	}
	put := func(step string, k int, shape int) {
		t.Helper()
		m := shapes[shape](testKey(k).Name)
		cache.Put(testKey(k), m)
		model.put(clock.Now(), testKey(k), m)
		check(step)
	}
	// The lifecycle events the walk must reach, counted as they happen.
	var hits, negativeHits, staleServes int
	probe := func(step string, k int, id uint16) {
		t.Helper()
		got := cache.probe(testKey(k), id, nil)
		want := model.probe(t, clock.Now(), testKey(k), id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: probe of %s\n got %+v\nwant %+v", step, testKey(k).Name, got, want)
		}
		if got.State == stateFresh {
			hits++
			if got.Negative {
				negativeHits++
			}
		}
		check(step)
	}

	// Four long answers fill the shard; a short one evicts the oldest,
	// inherits its buffers and is served at once.
	for k := 0; k < 4; k++ {
		put("fill", k, 2)
	}
	put("short over long", 4, 1)
	probe("short over long", 4, 0xbeef)
	put("negative over long", 5, 0)
	probe("negative over long", 5, 0xcafe)
	// The SOA asks for four hours; the entry is fresh until the cap and
	// stale just past it.
	put("long negative", 6, 4)
	clock.Advance(DefaultMaxNegativeTTL - time.Second)
	probe("long negative before the cap", 6, 0xf00d)
	clock.Advance(2 * time.Second)
	probe("long negative past the cap", 6, 0xf00d)

	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 600; i++ {
		step := fmt.Sprintf("step %d", i)
		k := rng.Intn(7)
		switch op := rng.Intn(10); {
		case op < 3:
			put(step, k, rng.Intn(len(shapes)))
		case op < 7:
			probe(step, k, uint16(rng.Intn(1<<16)))
		case op < 8:
			id := uint16(rng.Intn(1 << 16))
			body, ok := cache.staleWire(testKey(k), id, nil)
			wantBody, wantOK := model.staleWire(t, clock.Now(), testKey(k), id)
			if ok != wantOK || !bytes.Equal(body, wantBody) {
				t.Fatalf("%s: stale wire of %s\n got %x %v\nwant %x %v", step,
					testKey(k).Name, body, ok, wantBody, wantOK)
			}
			if ok {
				staleServes++
			}
			check(step)
		default:
			clock.Advance(time.Duration(rng.Intn(25)) * time.Second)
		}
	}
	if st := cache.Stats(); st.Evictions == 0 || st.Expirations == 0 || staleServes == 0 ||
		negativeHits == 0 || hits == 0 {
		t.Errorf("the walk missed part of the lifecycle: %+v, %d hits (%d negative), %d stale serves",
			st, hits, negativeHits, staleServes)
	}
}

// FuzzAppendTTLSlots drives the walk that decides which bytes every cache
// hit patches. Arbitrary bytes must never panic or yield a slot whose TTL
// field runs past the wire; bytes dnswire.Unpack accepts must yield one
// slot per non-OPT record of the three sections, in order, holding that
// record's TTL; and appending into a dirty dst must leave its prefix alone
// and add exactly the slots a fresh call returns. Any wire the walk accepts
// must come back from the cache as it went in: stored over a longer
// answer's buffer and probed, the body is the wire with the ID patched and
// the TTLs aged at the slot offsets, and exactly as long, so the slot tail
// the entry keeps behind the wire never leaks into it.
func FuzzAppendTTLSlots(f *testing.F) {
	signed := answerOf("signed.test.", 300, 60)
	signed.Answer = append(signed.Answer, dnswire.RR{
		Name: "signed.test.", Type: dnswire.TypeRRSIG, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.RRSIGData{
			TypeCovered: dnswire.TypeA, Algorithm: 13, Labels: 2, OriginalTTL: 300,
			Expiration: 1_800_000_000, Inception: 1_700_000_000, KeyTag: 4242,
			SignerName: "test.", Signature: bytes.Repeat([]byte{0xab}, 64),
		},
	})
	nodata := answerOf("nodata.test.")
	// No OPT: the SOA is the only record.
	nodata.Additional = nil
	// OPT first in the additional section, glue after it.
	glued := answerOf("glued.test.", 120)
	glued.Additional = append(glued.Additional, dnswire.RR{
		Name: "ns1.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 7200,
		Data: &dnswire.AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 53})},
	})
	for _, m := range []*dnswire.Message{signed, nodata, glued} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-3]) // last record cut short
	}
	// Every wire is stored over this answer, whose buffer is longer than
	// most seeds'.
	long := answerOf("long.test.", 300, 300, 300, 300, 300, 300, 300, 300)
	// insert takes the retention window from the message, not the wire.
	retain := answerOf("retain.test.", 3600)
	f.Fuzz(func(t *testing.T, wire []byte) {
		fresh, err := appendTTLSlots(nil, wire)
		if len(fresh)%slotSize != 0 {
			t.Fatalf("%d slot bytes, not a multiple of %d", len(fresh), slotSize)
		}
		for s := fresh; len(s) > 0; s = s[slotSize:] {
			if off := binary.BigEndian.Uint32(s); int(off)+4 > len(wire) {
				t.Fatalf("slot at %d runs past a %d-byte wire", off, len(wire))
			}
		}

		junk := make([]byte, 16*slotSize)
		for i := range junk {
			junk[i] = ^byte(i)
		}
		prefix := slices.Clone(junk[:3*slotSize])
		dirty, dirtyErr := appendTTLSlots(junk[:3*slotSize], wire)
		if !bytes.Equal(junk[:3*slotSize], prefix) {
			t.Fatalf("dst prefix rewritten: %x, want %x", junk[:3*slotSize], prefix)
		}
		if (err == nil) != (dirtyErr == nil) {
			t.Fatalf("fresh err %v, dirty err %v", err, dirtyErr)
		}
		if err == nil && (!bytes.Equal(dirty[:3*slotSize], prefix) || !bytes.Equal(dirty[3*slotSize:], fresh)) {
			t.Fatalf("dirty append = %x, want %x then %x", dirty, prefix, fresh)
		}

		if err == nil {
			clock := simnet.NewClock(time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
			cache := NewCacheWith(clock, CacheConfig{Shards: 1, ShardCapacity: 1})
			cache.Put(testKey(0), long)
			cache.insert(testKey(1), retain, wire) // evicts long, takes its buffer
			const elapsed = 7
			clock.Advance(elapsed * time.Second)
			got := cache.probe(testKey(1), 0xbeef, nil)
			want := slices.Clone(wire)
			binary.BigEndian.PutUint16(want, 0xbeef)
			for s := fresh; len(s) > 0; s = s[slotSize:] {
				ttl := binary.BigEndian.Uint32(s[4:])
				binary.BigEndian.PutUint32(want[binary.BigEndian.Uint32(s):], ttl-min(ttl, elapsed))
			}
			if got.State != stateFresh || !bytes.Equal(got.Body, want) {
				t.Fatalf("stored and probed: state %v, %d bytes\n got %x\nwant %x", got.State, len(got.Body), got.Body, want)
			}
		}

		m := new(dnswire.Message)
		if uerr := dnswire.UnpackInto(m, wire); uerr != nil {
			return
		}
		if err != nil {
			t.Fatalf("UnpackInto accepts the wire, appendTTLSlots rejects it: %v", err)
		}
		var want []dnswire.RR
		for _, sec := range [][]dnswire.RR{m.Answer, m.Authority, m.Additional} {
			for _, rr := range sec {
				if rr.Type != dnswire.TypeOPT {
					want = append(want, rr)
				}
			}
		}
		if len(fresh) != len(want)*slotSize {
			t.Fatalf("%d slots for %d non-OPT records", len(fresh)/slotSize, len(want))
		}
		for i := range want {
			s := fresh[i*slotSize:]
			off, ttl := binary.BigEndian.Uint32(s), binary.BigEndian.Uint32(s[4:])
			if ttl != want[i].TTL || binary.BigEndian.Uint32(wire[off:]) != ttl {
				t.Fatalf("slot %d = (%d, %d), want TTL %d of %s %s", i, off, ttl, want[i].TTL, want[i].Name, want[i].Type)
			}
		}
	})
}
