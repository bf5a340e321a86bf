package resolver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
)

// upstream returns how many queries f sent to authoritative servers.
func (w *testWorld) upstream(f func()) uint64 {
	before := w.net.QueryCount()
	f()
	return w.net.QueryCount() - before
}

func (w *testWorld) mustResolve(t *testing.T, name string, typ dnswire.Type) *Response {
	t.Helper()
	res, err := w.resolver.Resolve(name, typ)
	if err != nil {
		t.Fatalf("resolving %s/%s: %v", name, typ, err)
	}
	return res
}

// TestWalkStartsAtClosestCut pins the upstream cost of the cold path on the
// three-server hierarchy: a full walk once, then one query per new name
// under a known cut, and a full walk again after Fork or FlushCache.
func TestWalkStartsAtClosestCut(t *testing.T) {
	w := buildWorld(t, false, false)
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 3 {
		t.Errorf("first name: %d upstream queries, want 3 (root, com., example.com.)", n)
	}
	if n := w.upstream(func() { w.mustResolve(t, "example.com.", dnswire.TypeHTTPS) }); n != 1 {
		t.Errorf("second name under the cut: %d upstream queries, want 1", n)
	}
	if n := w.upstream(func() { w.mustResolve(t, "missing.com.", dnswire.TypeA) }); n != 1 {
		t.Errorf("sibling under com.: %d upstream queries, want 1 (com. answers NXDOMAIN itself)", n)
	}

	f := w.resolver.Fork(w.net)
	if len(f.cuts) != 0 || len(f.cache) != 0 {
		t.Errorf("fork starts with %d cuts, %d answers; want none", len(f.cuts), len(f.cache))
	}
	if n := w.upstream(func() { _, _ = f.Resolve("www.example.com.", dnswire.TypeA) }); n != 3 {
		t.Errorf("fork's first name: %d upstream queries, want 3", n)
	}

	w.resolver.FlushCache()
	if len(w.resolver.cuts) != 0 {
		t.Errorf("%d cuts survive FlushCache", len(w.resolver.cuts))
	}
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 3 {
		t.Errorf("after FlushCache: %d upstream queries, want 3", n)
	}
}

// TestCutExpiresWithNSTTL: a delegation is trusted for its NS RRset's TTL
// on the virtual clock and not a second longer.
func TestCutExpiresWithNSTTL(t *testing.T) {
	w := buildWorld(t, false, false)
	// example.com.'s delegation gets a TTL below com.'s own (3600 s).
	w.comZone.RemoveRRset("example.com.", dnswire.TypeNS)
	short := nsRR("example.com.", "ns1.example.com.")
	short.TTL = 600
	w.comZone.Add(short)

	w.mustResolve(t, "www.example.com.", dnswire.TypeA)
	w.clock.Advance(599 * time.Second) // the 60 s answer is long gone, the cut is not
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 1 {
		t.Errorf("inside the NS TTL: %d upstream queries, want 1", n)
	}
	w.clock.Advance(61 * time.Second)
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 2 {
		t.Errorf("past the NS TTL: %d upstream queries, want 2 (restart at com.)", n)
	}
	w.clock.Advance(3600 * time.Second)
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 3 {
		t.Errorf("past com.'s NS TTL too: %d upstream queries, want 3 (restart at the root)", n)
	}
}

// TestDSAskedOnParentSide: with the child's cut cached, a DS lookup must
// still go to the parent — the child has no DS and would answer NODATA,
// turning the secure chain insecure.
func TestDSAskedOnParentSide(t *testing.T) {
	w := buildWorld(t, true, true)
	w.resolver.Validate = false // only HTTPS answers validate, so the A lookup fetches no DS either way
	w.mustResolve(t, "www.example.com.", dnswire.TypeA)
	if _, ok := w.resolver.cuts["example.com."]; !ok {
		t.Fatal("the example.com. cut was not cached")
	}
	w.resolver.Validate = true
	var ds []dnswire.RR
	n := w.upstream(func() { ds, _, _ = w.resolver.FetchRRset("example.com.", dnswire.TypeDS) })
	if len(ds) == 0 {
		t.Fatal("DS lookup below a cached cut came back empty: it was asked at the child")
	}
	if n != 1 {
		t.Errorf("DS lookup: %d upstream queries, want 1 (com. directly)", n)
	}
	if res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
		t.Error("AD bit lost on a secure chain once the cut was cached")
	}
}

// TestStaleCutFallsBackToRoot: the zone moves to a new server inside the NS
// TTL and the old one refuses it. The cached cut must be dropped and the
// name resolved through the root, not answered with SERVFAIL.
func TestStaleCutFallsBackToRoot(t *testing.T) {
	w := buildWorld(t, false, false)
	w.mustResolve(t, "www.example.com.", dnswire.TypeA)

	newAddr := netip.MustParseAddr("10.1.0.99")
	moved := authserver.New()
	moved.AddZone(w.exZone)
	w.net.RegisterDNS(newAddr, moved)
	w.comZone.RemoveRRset("ns1.example.com.", dnswire.TypeA)
	w.comZone.Add(aRR("ns1.example.com.", newAddr.String(), 3600))
	w.exSrv.RefuseAll = true

	w.clock.Advance(61 * time.Second) // answer expired, cut still live
	var res *Response
	if n := w.upstream(func() { res = w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 4 {
		t.Errorf("stale cut: %d upstream queries, want 4 (refused, then root, com., new server)", n)
	}
	if len(res.Answer) != 1 || res.Answer[0].Data.(*dnswire.AData).Addr.String() != "10.1.0.80" {
		t.Errorf("answer through the fallback: %v", res.Answer)
	}
	w.clock.Advance(61 * time.Second)
	if n := w.upstream(func() { w.mustResolve(t, "www.example.com.", dnswire.TypeA) }); n != 1 {
		t.Errorf("after the fallback relearned the cut: %d upstream queries, want 1", n)
	}

	// A zone that is simply down fails the same way the root walk would.
	w.net.SetAddrDown(newAddr, true)
	w.clock.Advance(61 * time.Second)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err == nil {
		t.Error("resolution succeeded with every server of the zone down")
	}
}

// TestCachesStayBounded drives fifty TTL generations of fresh names through
// the answer cache: the map may never exceed its cap, and cacheLen must keep
// counting exactly the live entries.
func TestCachesStayBounded(t *testing.T) {
	w := buildWorld(t, false, false)
	r := w.resolver
	const ttl = 60 * time.Second
	perGen := maxAnswers / 20
	for gen := 0; gen < 50; gen++ {
		expires := w.clock.Now().Add(ttl).UnixNano()
		for i := 0; i < perGen; i++ {
			name := fmt.Sprintf("g%d-n%d.example.com.", gen, i)
			r.store(name, dnswire.TypeA, &cacheEntry{expires: expires})
			if len(r.cache) > maxAnswers {
				t.Fatalf("generation %d: %d answers (cap %d)", gen, len(r.cache), maxAnswers)
			}
		}
		if got := r.cacheLen(); got != perGen {
			t.Fatalf("generation %d: cacheLen %d, want the %d entries still inside their TTL", gen, got, perGen)
		}
		w.clock.Advance(ttl)
		if got := r.cacheLen(); got != 0 {
			t.Fatalf("generation %d: cacheLen %d after every TTL ran out", gen, got)
		}
	}
	if len(r.cache) <= perGen {
		t.Errorf("only %d answers retained: the sweep should run at the cap, not on every insert", len(r.cache))
	}

	// A table full of live entries cannot be swept; it is dropped whole
	// rather than re-scanned on every insert.
	r.FlushCache()
	expires := w.clock.Now().Add(time.Hour).UnixNano()
	for i := 0; i < maxAnswers+10; i++ {
		r.store(fmt.Sprintf("live%d.example.com.", i), dnswire.TypeA, &cacheEntry{expires: expires})
		if len(r.cache) > maxAnswers {
			t.Fatalf("%d live answers, cap %d", len(r.cache), maxAnswers)
		}
	}
	if got := r.cacheLen(); got != len(r.cache) || got == 0 {
		t.Errorf("cacheLen %d with %d live entries in the map", got, len(r.cache))
	}
}

// TestMakeRoom covers the shared eviction rule on a cut-sized table.
func TestMakeRoom(t *testing.T) {
	m := map[string]zoneCut{}
	dead := func(c zoneCut) bool { return c.expires <= 100 }
	for i := 0; i < 64; i++ {
		m[fmt.Sprint(i)] = zoneCut{expires: int64(i * 4)} // 0..25 dead, 26..63 live
	}
	makeRoom(m, 100, dead)
	if len(m) != 64 {
		t.Errorf("below the cap: %d entries left of 64", len(m))
	}
	makeRoom(m, 64, dead)
	if len(m) != 38 {
		t.Errorf("at the cap: %d entries left, want the 38 live ones", len(m))
	}
	makeRoom(m, 38, dead)
	if len(m) != 0 {
		t.Errorf("full of live entries: %d left, want the table dropped", len(m))
	}
}

// TestSigsLast: a section with signatures already last is kept as is; an
// interleaved one (an in-zone CNAME chase: CNAME, its RRSIG, target, its
// RRSIG) is reordered on a copy, data and signatures each in their order.
func TestSigsLast(t *testing.T) {
	rr := func(name string, typ dnswire.Type) dnswire.RR { return dnswire.RR{Name: name, Type: typ} }
	tidy := []dnswire.RR{rr("a.", dnswire.TypeA), rr("b.", dnswire.TypeA), rr("a.", dnswire.TypeRRSIG)}
	if got, n := sigsLast(tidy); n != 2 || &got[0] != &tidy[0] {
		t.Errorf("ordered section: n=%d, copied=%v; want 2 data records and the section itself", n, &got[0] != &tidy[0])
	}
	if _, n := sigsLast(tidy[:2]); n != 2 {
		t.Errorf("unsigned section: n=%d, want 2", n)
	}
	mixed := []dnswire.RR{rr("c.", dnswire.TypeCNAME), rr("c.", dnswire.TypeRRSIG), rr("t.", dnswire.TypeA), rr("t.", dnswire.TypeRRSIG)}
	got, n := sigsLast(mixed)
	if n != 2 || got[0].Name != "c." || got[1].Name != "t." || got[2].Name != "c." || got[3].Name != "t." ||
		got[1].Type != dnswire.TypeA || got[2].Type != dnswire.TypeRRSIG {
		t.Errorf("interleaved section: n=%d, %v", n, got)
	}
	if mixed[1].Type != dnswire.TypeRRSIG {
		t.Error("the interleaved section was reordered in place")
	}
}
