package resolver

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// copiedReplies wraps a handler so that every answer leaves it as a value
// copy, which Release leaves alone: the unreleased path, for comparison.
type copiedReplies struct{ h simnet.DNSHandler }

func (c copiedReplies) HandleDNS(q *dnswire.Message) *dnswire.Message {
	m := *c.h.HandleDNS(q)
	return &m
}

// TestReleasedRepliesLeaveTheCachesUnchanged resolves the same names with
// two recursors over one signed hierarchy: one asks the servers directly
// and releases every reply it got, the other sees them behind copiedReplies
// and releases nothing. Referrals root → com. → example.com., answers,
// NODATA, NXDOMAIN, a CNAME chase and the validator's DNSKEY and DS fetches
// must leave both with the same responses, cuts (server lists included) and
// answer cache, the AD bits of the validated zone keys included — nothing a
// cache kept may have lived in a reply's skeleton.
func TestReleasedRepliesLeaveTheCachesUnchanged(t *testing.T) {
	w := buildWorld(t, true, true)
	view := w.net.WithClock(w.clock)
	for addr, h := range w.auth {
		view.OverrideDNS(addr, copiedReplies{h})
	}
	released, kept := w.resolver, w.resolver.Fork(view)
	for _, c := range []struct {
		name string
		typ  dnswire.Type
	}{
		{"example.com.", dnswire.TypeHTTPS},
		{"www.example.com.", dnswire.TypeA},
		{"www.example.com.", dnswire.TypeAAAA},
		{"alias.example.com.", dnswire.TypeA},
		{"missing.example.com.", dnswire.TypeA},
		{"missing.com.", dnswire.TypeHTTPS},
		{"example.com.", dnswire.TypeDS},
	} {
		got, err := released.Resolve(c.name, c.typ)
		want, werr := kept.Resolve(c.name, c.typ)
		if err != nil || werr != nil {
			t.Fatalf("%s/%s: %v, %v", c.name, c.typ, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: with released replies %+v, without %+v", c.name, c.typ, got, want)
		}
	}
	if _, ok := released.Get("example.com."); len(released.cuts) < 2 || len(released.cache) < 7 || !ok {
		t.Fatalf("%d cuts, %d answers, example.com. keys validated %v: the walk saw too little to compare",
			len(released.cuts), len(released.cache), ok)
	}
	if !reflect.DeepEqual(released.cuts, kept.cuts) {
		t.Errorf("cut tables differ:\n released %+v\n kept %+v", released.cuts, kept.cuts)
	}
	if !reflect.DeepEqual(released.cache, kept.cache) {
		t.Errorf("answer caches differ:\n released %+v\n kept %+v", released.cache, kept.cache)
	}
}

// TestStubAnswerAllocBudgets pins what the recursor's side of a stub query
// allocates once the stub releases the answer: nothing for a cached name,
// and for a cold NODATA below a cached cut only the authoritative's own
// answer — the walk's query coming from the shared query table, the cache
// entry from the resolver's slab, the reply skeletons and the Response
// having stayed out of the heap, the authoritative's zone lookup counting
// each origin's labels without splitting it, and its authority section one
// slice over the zone's own SOA record, not a deep copy. A signed zone's
// NODATA costs the same: the entry keeps the SOA as a capacity-clipped
// slice of the section, ahead of the RRSIG it drops, not as a copy.
func TestStubAnswerAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, signed := range []bool{false, true} {
		w := buildWorld(t, signed, signed)
		cached := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA, true)
		nodata := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeAAAA, true)
		for _, q := range []*dnswire.Message{cached, nodata} {
			if resp := w.resolver.HandleDNS(q); resp.RCode != dnswire.RCodeNoError {
				t.Fatalf("signed %v, %v: rcode %v", signed, q.Question[0], resp.RCode)
			}
		}
		if n := testing.AllocsPerRun(100, func() { w.resolver.HandleDNS(cached).Release() }); n != 0 {
			t.Errorf("signed %v, cached name: %v allocations, want 0", signed, n)
		}
		// The negative answer lives 60 s, the example.com. cut an hour:
		// every run below is one upstream query from the cut, all of them
		// inside it.
		var upstream uint64
		cold := func() {
			w.clock.Advance(61 * time.Second)
			upstream += w.upstream(func() { w.resolver.HandleDNS(nodata).Release() })
		}
		// Every run sends the query table's one query for the name, built
		// by the first. A few runs first fill the skeleton pool the replies
		// go back to, whatever earlier tests left in it.
		for i := 0; i < 8; i++ {
			cold()
		}
		n := testing.AllocsPerRun(40, cold)
		if upstream != 49 {
			t.Fatalf("signed %v: %d upstream queries in 49 runs: not the cold path below a warm cut", signed, upstream)
		}
		if n != 2 {
			t.Errorf("signed %v, cold NODATA below a cached cut: %v allocations, want 2", signed, n)
		}
	}
}

// keptQueries is an authoritative that keeps every query it is sent, and
// a deep copy of each as it arrived.
type keptQueries struct {
	h    simnet.DNSHandler
	seen []*dnswire.Message
	sent []dnswire.Message
}

func (k *keptQueries) HandleDNS(q *dnswire.Message) *dnswire.Message {
	k.seen, k.sent = append(k.seen, q), append(k.sent, queryCopy(q))
	return k.h.HandleDNS(q)
}

// queryCopy copies a query's header, question and OPT record.
func queryCopy(q *dnswire.Message) dnswire.Message {
	c := *q
	c.Question = slices.Clone(q.Question)
	c.Additional = slices.Clone(q.Additional)
	for i, rr := range c.Additional {
		c.Additional[i] = rr.Clone()
	}
	return c
}

// TestWalkQueriesNeverPatched: a handler may keep the queries it is sent
// (the benchmark's replay probe does), so the recursor never writes into a
// query once sent nor hands its slot out again. Every query the servers
// saw over walks, a FlushCache and more walks must still say what it said
// on arrival. Walk queries are built once per (name, type), so the walks
// ask for 117 distinct keys: more queries than three slab chunks hold.
func TestWalkQueriesNeverPatched(t *testing.T) {
	w := buildWorld(t, true, true)
	kept := map[netip.Addr]*keptQueries{}
	for addr, h := range w.auth {
		kept[addr] = &keptQueries{h: h}
		w.net.RegisterDNS(addr, kept[addr])
	}
	names := []string{"example.com.", "www.example.com.", "alias.example.com.", "missing.example.com.", "missing.com."}
	for i := 0; i < 34; i++ {
		names = append(names, fmt.Sprintf("gone%d.example.com.", i))
	}
	walk := func() {
		for i := 0; i < 60; i++ {
			w.clock.Advance(61 * time.Second) // past the negative TTLs: most runs walk again
			for _, name := range names {
				for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeHTTPS} {
					w.resolver.HandleDNS(dnswire.NewQuery(uint16(i), name, typ, true)).Release()
				}
			}
		}
	}
	walk()
	w.resolver.FlushCache()
	walk()
	distinct := map[*dnswire.Message]bool{}
	for _, k := range kept {
		for i, q := range k.seen {
			if !reflect.DeepEqual(queryCopy(q), k.sent[i]) {
				t.Fatalf("query %d to a server changed after it was sent:\n now %+v\n was %+v", i, q, &k.sent[i])
			}
			distinct[q] = true
		}
	}
	if len(distinct) < 3*32 {
		t.Fatalf("the servers saw %d distinct queries: too few to span several query slab chunks", len(distinct))
	}
}

// sharedQueries is keptQueries for senders on several goroutines.
type sharedQueries struct {
	mu sync.Mutex
	k  keptQueries
}

func (s *sharedQueries) HandleDNS(q *dnswire.Message) *dnswire.Message {
	s.mu.Lock()
	s.k.seen, s.k.sent = append(s.k.seen, q), append(s.k.sent, queryCopy(q))
	s.mu.Unlock()
	return s.k.h.HandleDNS(q)
}

// TestForksShareOneQueryPerKey: walk's query is a pure function of (name,
// type), so a resolver and all its forks build it once. The parent and two
// forks on two goroutines, one of which flushes its caches halfway, walk the
// same names again and again: each server must see one message per (name,
// type) it was asked, every (name, type) walked must reach a server, and
// every message must still say what it said when it arrived.
func TestForksShareOneQueryPerKey(t *testing.T) {
	w := buildWorld(t, true, true)
	kept := map[netip.Addr]*sharedQueries{}
	for addr, h := range w.auth {
		kept[addr] = &sharedQueries{k: keptQueries{h: h}}
		w.net.RegisterDNS(addr, kept[addr])
	}
	names := []string{"example.com.", "www.example.com.", "alias.example.com.", "missing.example.com.", "missing.com."}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeHTTPS}
	walk := func(r *Resolver, clock *simnet.Clock, flushAt int) {
		for i := 0; i < 20; i++ {
			if i == flushAt {
				r.FlushCache()
			}
			clock.Advance(61 * time.Second) // past the negative TTLs: most rounds walk again
			for _, name := range names {
				for _, typ := range types {
					r.HandleDNS(dnswire.NewQuery(uint16(i), name, typ, true)).Release()
				}
			}
		}
	}
	walk(w.resolver, w.clock, -1)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		clock := simnet.NewClock(w.clock.Now())
		f := w.resolver.Fork(w.net.WithClock(clock))
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk(f, clock, 10*g-1)
		}()
	}
	wg.Wait()

	asked := map[rrKey]bool{}
	sends := 0
	for _, s := range kept {
		msgs := map[rrKey]*dnswire.Message{}
		for i, q := range s.k.seen {
			if !reflect.DeepEqual(queryCopy(q), s.k.sent[i]) {
				t.Fatalf("query %d to a server changed after it was sent:\n now %+v\n was %+v", i, q, &s.k.sent[i])
			}
			k := rrKey{q.Question[0].Name, q.Question[0].Type}
			if m, ok := msgs[k]; ok && m != q {
				t.Fatalf("%s/%s: the server saw two messages, %p and %p", k.name, k.t, m, q)
			}
			msgs[k], asked[k] = q, true
		}
		sends += len(s.k.seen)
	}
	for _, name := range names {
		for _, typ := range types {
			if !asked[rrKey{name, typ}] {
				t.Errorf("%s/%s was walked but no server was asked it", name, typ)
			}
		}
	}
	if sends < 4*len(asked) {
		t.Fatalf("%d queries sent for %d keys: too few repeats to show sharing", sends, len(asked))
	}
}
