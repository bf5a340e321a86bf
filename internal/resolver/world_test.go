package resolver_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/resolver"
	"repro/internal/simnet"
)

// These tests run the recursor against the generated provider world the
// campaigns scan — root, signed TLD servers, provider fleets — rather than
// the three-zone fixture of the package-internal tests.

var scanTime = time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC)

func buildWorld(t *testing.T, size int) *providers.World {
	t.Helper()
	w, err := providers.BuildWorld(providers.WorldConfig{Size: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fork gives a recursor of w its own clock, as a scan day's context does.
func fork(w *providers.World, at time.Time) (*resolver.Resolver, *simnet.Clock, *simnet.Network) {
	clock := simnet.NewClock(at)
	net := w.Net.WithClock(clock)
	return w.GoogleResolver.Fork(net), clock, net
}

// pick returns the domains matching pred, in name order.
func pick(w *providers.World, pred func(*providers.DomainState) bool) []*providers.DomainState {
	var out []*providers.DomainState
	for _, d := range w.Domains {
		if pred(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Apex < out[j].Apex })
	return out
}

// steady domains have one provider arrangement for the whole study and no
// CNAME indirection, so their upstream cost is the hierarchy's alone.
func steady(d *providers.DomainState) bool {
	return d.Intermittent == providers.IntermitNone && d.SwitchDay.IsZero() &&
		len(d.NoNSEpisodes) == 0 && !d.ApexCNAME && !d.WWWCNAME && d.HasWWW
}

func TestUpstreamCountsOnProviderWorld(t *testing.T) {
	w := buildWorld(t, 400)
	com := pick(w, func(d *providers.DomainState) bool { return steady(d) && strings.HasSuffix(d.Apex, ".com.") })
	if len(com) < 2 {
		t.Fatalf("world has %d steady .com domains, need 2", len(com))
	}
	r, _, net := fork(w, scanTime)
	cost := func(name string) uint64 {
		t.Helper()
		before := net.QueryCount()
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			t.Fatalf("resolving %s: %v", name, err)
		}
		return net.QueryCount() - before
	}
	if n := cost(com[0].Apex); n != 3 {
		t.Errorf("first cold name under com.: %d upstream queries, want 3", n)
	}
	if n := cost(com[1].Apex); n != 2 {
		t.Errorf("sibling under com.: %d upstream queries, want 2", n)
	}
	if n := cost(com[0].WWWName()); n != 1 {
		t.Errorf("www of a resolved apex: %d upstream queries, want 1", n)
	}
	if n := cost(com[0].Apex); n != 0 {
		t.Errorf("cached name: %d upstream queries, want 0", n)
	}
}

// TestUnsignedAnswerSkipsTheChain: an RRset served without signatures can
// only be insecure or bogus, so the recursor clears AD without asking the
// hierarchy for NS, DS or DNSKEY records.
func TestUnsignedAnswerSkipsTheChain(t *testing.T) {
	w := buildWorld(t, 2000)
	unsigned := pick(w, func(d *providers.DomainState) bool {
		return steady(d) && !d.Signed && d.Profile != providers.ProfileNone && d.HTTPSPublished(scanTime, d.Providers[0])
	})
	if len(unsigned) == 0 {
		t.Fatal("world has no unsigned HTTPS adopter")
	}
	r, _, net := fork(w, scanTime)
	before := net.QueryCount()
	res, err := r.Resolve(unsigned[0].Apex, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) == 0 || res.AuthenticatedData {
		t.Errorf("unsigned adopter: %d answers, AD=%v; want an answer without AD", len(res.Answer), res.AuthenticatedData)
	}
	if n := net.QueryCount() - before; n != 3 {
		t.Errorf("unsigned adopter, cold: %d upstream queries, want 3 (root, TLD, provider — no chain walk)", n)
	}
}

func TestSignedAdopterKeepsADBehindCachedCut(t *testing.T) {
	w := buildWorld(t, 2000)
	signed := pick(w, func(d *providers.DomainState) bool {
		return steady(d) && d.Signed && d.DSUploaded && d.Profile != providers.ProfileNone &&
			d.HTTPSPublished(scanTime, d.Providers[0])
	})
	if len(signed) == 0 {
		t.Fatal("world has no signed HTTPS adopter with an uploaded DS")
	}
	d := signed[0]
	r, _, net := fork(w, scanTime)
	// An unvalidated type first, so the apex cut is cached before any DS
	// is asked for.
	if _, err := r.Resolve(d.Apex, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	before := net.QueryCount()
	ds, sigs, ok := r.FetchRRset(d.Apex, dnswire.TypeDS)
	if !ok || len(ds) == 0 || len(sigs) == 0 {
		t.Fatalf("DS of %s behind its cached cut: %d records, %d signatures — asked at the child?", d.Apex, len(ds), len(sigs))
	}
	if n := net.QueryCount() - before; n != 1 {
		t.Errorf("DS lookup: %d upstream queries, want 1 (the TLD's servers)", n)
	}
	res, err := r.Resolve(d.Apex, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) == 0 || !res.AuthenticatedData {
		t.Errorf("signed adopter %s: %d answers, AD=%v; want a secure answer", d.Apex, len(res.Answer), res.AuthenticatedData)
	}
}

// TestProviderChangeInsideNSTTL: a domain leaves its provider while the
// recursor still holds the old delegation. The old provider refuses the
// zone; the recursor must drop the cut and find the new provider.
func TestProviderChangeInsideNSTTL(t *testing.T) {
	w := buildWorld(t, 2000)
	movers := pick(w, func(d *providers.DomainState) bool {
		return d.Intermittent == providers.IntermitSwitchAway && !d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0
	})
	if len(movers) == 0 {
		t.Fatal("world has no switch-away domain")
	}
	d := movers[0]
	r, clock, net := fork(w, d.SwitchDay.Add(-time.Hour))
	if _, err := r.Resolve(d.Apex, dnswire.TypeA); err != nil {
		t.Fatalf("before the move: %v", err)
	}
	clock.Advance(2 * time.Hour) // past the move, far inside the 86400 s NS TTL
	before := net.QueryCount()
	res, err := r.Resolve(d.Apex, dnswire.TypeA)
	if err != nil {
		t.Fatalf("after the move: %v (a stale cut must fall back to the root)", err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) == 0 {
		t.Errorf("after the move: rcode %v, %d answers", res.RCode, len(res.Answer))
	}
	// Two refusals from the old provider's servers, then root, TLD and
	// the new provider.
	if n := net.QueryCount() - before; n != 5 {
		t.Errorf("after the move: %d upstream queries, want 5", n)
	}
	clock.Advance(2 * time.Hour)
	before = net.QueryCount()
	if _, err := r.Resolve(d.Apex, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if n := net.QueryCount() - before; n != 1 {
		t.Errorf("with the new cut learned: %d upstream queries, want 1", n)
	}
}

// TestConcurrentForksMatchSerial: eight forks of one recursor — sharing
// nothing but its query table and dnssec's process memo — resolve the same
// names at once; every AD bit must equal a serial run's. Run under -race
// (make race) this is the coverage for
// the first resolver state day workers share, and for the records the
// authoritatives share between all of them: the cached RRSIGs and per-key
// DNSKEY RDATA every fork aliases into its cache must come out of the run
// saying what they said before it.
func TestConcurrentForksMatchSerial(t *testing.T) {
	w := buildWorld(t, 2000)
	adopters := pick(w, func(d *providers.DomainState) bool {
		return d.Profile != providers.ProfileNone && d.HTTPSPublished(scanTime, d.Providers[0])
	})
	if len(adopters) > 200 {
		adopters = adopters[:200]
	}
	// served deep-copies what the signed adopters' providers answer.
	served := func() (out [][]dnswire.RR) {
		for _, d := range adopters {
			if !d.Signed {
				continue
			}
			for _, typ := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeDNSKEY} {
				var rrs []dnswire.RR
				for _, rr := range d.Providers[0].HandleDNSAt(dnswire.NewQuery(1, d.Apex, typ, true), scanTime).Answer {
					rrs = append(rrs, rr.Clone())
				}
				out = append(out, rrs)
			}
		}
		return out
	}
	before := served()
	resolveAll := func(r *resolver.Resolver) []bool {
		ad := make([]bool, len(adopters))
		for i, d := range adopters {
			if res, err := r.Resolve(d.Apex, dnswire.TypeHTTPS); err == nil {
				ad[i] = res.AuthenticatedData
			}
		}
		return ad
	}
	serial, _, _ := fork(w, scanTime)
	want := resolveAll(w.CFResolver.Fork(serial.Net))
	secure := 0
	for _, v := range want {
		if v {
			secure++
		}
	}
	if secure == 0 || secure == len(want) {
		t.Fatalf("%d of %d names secure: the comparison needs both outcomes", secure, len(want))
	}

	const forks = 8
	got := make([][]bool, forks)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, _ := fork(w, scanTime)
			got[i] = resolveAll(r)
		}()
	}
	wg.Wait()
	for i, ad := range got {
		for j := range ad {
			if ad[j] != want[j] {
				t.Errorf("fork %d: %s AD=%v, serial run says %v", i, adopters[j].Apex, ad[j], want[j])
			}
		}
	}
	if after := served(); len(before) == 0 || !reflect.DeepEqual(after, before) {
		t.Errorf("the %d signed answers the providers share changed while the forks read them", len(before))
	}
}

// TestStubAnswerIsAClippedAlias: a one-hop answer leaves HandleDNS as an
// alias of the cache entry — data then RRSIGs, nothing copied — clipped to
// its length, so a stub that appends gets an array of its own and the next
// stub still sees the entry as it was.
func TestStubAnswerIsAClippedAlias(t *testing.T) {
	w := buildWorld(t, 2000)
	signed := pick(w, func(d *providers.DomainState) bool {
		return steady(d) && d.Signed && d.DSUploaded && d.HTTPSPublished(scanTime, d.Providers[0])
	})
	if len(signed) == 0 {
		t.Fatal("world has no signed HTTPS adopter")
	}
	r, _, _ := fork(w, scanTime)
	q := dnswire.NewQuery(1, signed[0].Apex, dnswire.TypeHTTPS, true)
	first := r.HandleDNS(q)
	if len(first.Answer) < 2 || first.Answer[len(first.Answer)-1].Type != dnswire.TypeRRSIG {
		t.Fatalf("answer %v, want data then RRSIG", first.Answer)
	}
	if cap(first.Answer) != len(first.Answer) {
		t.Fatalf("answer has cap %d beyond len %d: an append would write into the cache entry", cap(first.Answer), len(first.Answer))
	}
	want, entry := append([]dnswire.RR(nil), first.Answer...), &first.Answer[0]
	first.Answer = append(first.Answer, dnswire.RR{Name: "scribble.", Type: dnswire.TypeTXT})
	second := r.HandleDNS(q)
	if !reflect.DeepEqual(second.Answer, want) {
		t.Errorf("second stub sees %v, first saw %v", second.Answer, want)
	}
	if &second.Answer[0] != entry {
		t.Error("a cached one-hop answer was copied on its way to the stub")
	}
	plain := r.HandleDNS(dnswire.NewQuery(2, signed[0].Apex, dnswire.TypeHTTPS, false))
	if n := len(plain.Answer); n != len(want)-1 || cap(plain.Answer) != n {
		t.Errorf("without DO: %d records (cap %d), want the %d data records, clipped", n, cap(plain.Answer), len(want)-1)
	}
}
