package resolver

import (
	"reflect"
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
// must leave both with the same responses, cuts, interned server lists,
// answer cache and zone keys — nothing a cache kept may have lived in a
// reply's skeleton.
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
	if len(released.cuts) < 2 || len(released.cache) < 7 || len(released.zoneKeys) == 0 {
		t.Fatalf("%d cuts, %d answers, %d zone keys: the walk saw too little to compare",
			len(released.cuts), len(released.cache), len(released.zoneKeys))
	}
	if !reflect.DeepEqual(released.cuts, kept.cuts) || !reflect.DeepEqual(released.addrSets, kept.addrSets) {
		t.Errorf("cut tables differ:\n released %+v\n kept %+v", released.cuts, kept.cuts)
	}
	if !reflect.DeepEqual(released.cache, kept.cache) {
		t.Errorf("answer caches differ:\n released %+v\n kept %+v", released.cache, kept.cache)
	}
	if !reflect.DeepEqual(released.zoneKeys, kept.zoneKeys) {
		t.Error("zone key caches differ")
	}
}

// TestStubAnswerAllocBudgets pins what the recursor's side of a stub query
// allocates once the stub releases the answer: nothing for a cached name,
// and for a cold NODATA below a cached cut only what the walk keeps — its
// query and the authoritative's own answer — the cache entry coming from the
// resolver's slab, and the reply skeletons and the Response having stayed
// out of the heap.
func TestStubAnswerAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := buildWorld(t, false, false)
	cached := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA, true)
	nodata := dnswire.NewQuery(2, "www.example.com.", dnswire.TypeAAAA, true)
	for _, q := range []*dnswire.Message{cached, nodata} {
		if resp := w.resolver.HandleDNS(q); resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("%v: rcode %v", q.Question[0], resp.RCode)
		}
	}
	if n := testing.AllocsPerRun(100, func() { w.resolver.HandleDNS(cached).Release() }); n != 0 {
		t.Errorf("cached name: %v allocations, want 0", n)
	}
	// The negative answer lives 60 s, the example.com. cut an hour: every
	// run below is one upstream query from the cut, all of them inside it.
	var upstream uint64
	cold := func() {
		w.clock.Advance(61 * time.Second)
		upstream += w.upstream(func() { w.resolver.HandleDNS(nodata).Release() })
	}
	// Each run takes one skeleton out of the pool for good (the walk's
	// query), so a few of them first use up whatever earlier tests left.
	for i := 0; i < 8; i++ {
		cold()
	}
	n := testing.AllocsPerRun(40, cold)
	if upstream != 49 {
		t.Fatalf("%d upstream queries in 49 runs: not the cold path below a warm cut", upstream)
	}
	if n != 5 {
		t.Errorf("cold NODATA below a cached cut: %v allocations, want 5", n)
	}
}
