package providers

import (
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/testrace"
)

// The authoritative answer path: what an answer costs, what it shares, and
// which bytes of the world it must never change.

var answerTime = time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC)

// steadyDomain finds a domain with one provider arrangement, no CNAME
// indirection and the given DNSSEC state, publishing HTTPS records or not.
func steadyDomain(t *testing.T, w *World, signed, adopter bool) *DomainState {
	t.Helper()
	d := findDomain(w, func(d *DomainState) bool {
		return d.Intermittent == IntermitNone && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0 &&
			!d.ApexCNAME && !d.WWWCNAME && d.Signed == signed && (!signed || d.DSUploaded) &&
			d.HTTPSPublished(answerTime, d.Providers[0]) == adopter
	})
	if d == nil {
		t.Fatalf("world has no steady domain with signed=%v adopter=%v", signed, adopter)
	}
	return d
}

func tldOf(t *testing.T, w *World, d *DomainState) *TLDServer {
	t.Helper()
	tld := w.TLDs[d.Apex[strings.IndexByte(d.Apex, '.')+1:]]
	if tld == nil {
		t.Fatalf("no TLD server for %s", d.Apex)
	}
	return tld
}

func sigsIn(rrs []dnswire.RR) int {
	n := 0
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeRRSIG {
			n++
		}
	}
	return n
}

// TestUnsignedDomainPaysNothingForDO: with DO set, an unsigned zone has no
// signature to add, so its answer must cost what it costs without DO — the
// answer section is the slice answerFor returned — and carry no RRSIG.
func TestUnsignedDomainPaysNothingForDO(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := steadyDomain(t, w, false, true)
	p := d.Providers[0]
	for _, typ := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeTXT} {
		plain := dnswire.NewQuery(1, d.Apex, typ, false)
		do := dnswire.NewQuery(1, d.Apex, typ, true)
		resp := p.HandleDNSAt(do, answerTime)
		if n := sigsIn(resp.Answer) + sigsIn(resp.Authority); n != 0 {
			t.Errorf("%s: unsigned domain answered with %d RRSIGs", typ, n)
		}
		if len(resp.Answer)+len(resp.Authority) == 0 {
			t.Errorf("%s: empty answer", typ)
		}
		if testrace.Enabled {
			continue
		}
		// Released, as a handler's caller does: the two counts then do not
		// depend on what the skeleton pool held when each began.
		without := testing.AllocsPerRun(50, func() { p.HandleDNSAt(plain, answerTime).Release() })
		with := testing.AllocsPerRun(50, func() { p.HandleDNSAt(do, answerTime).Release() })
		if with != without {
			t.Errorf("%s: DO costs an unsigned domain %v allocations, %v without it", typ, with, without)
		}
	}
}

// TestAuthoritativeAllocBudgets pins the warm cost of the answers a scan is
// mostly made of, and the cold cost of a signed NODATA: asked on a new day
// each run, its SOA carries a new serial, so every run misses the
// signature cache and signs — and a signature nobody reads costs no ECDSA
// step. That NODATA's RRSIG must then pack to the bytes of an eager
// sign-and-pack of the same SOA. Warm, an unsigned NODATA costs its reply
// skeleton and nothing else (the SOA is the domain's memo), so released it
// costs nothing; a referral costs the skeleton, its sections being the
// child's memo, and for a signed child one more array for the DS and its
// RRSIG behind the shared NS set.
func TestAuthoritativeAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := buildTestWorld(t, 2000)
	unsigned, signed := steadyDomain(t, w, false, false), steadyDomain(t, w, true, true)
	negative := findDomain(w, func(d *DomainState) bool {
		return d.Signed && d.Profile == ProfileNone && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() &&
			len(d.NoNSEpisodes) == 0 && !d.ApexCNAME
	})
	if negative == nil {
		t.Fatal("world has no steady signed non-adopter")
	}
	day := 0
	for _, c := range []struct {
		what    string
		max     float64
		h       simnet.DNSHandlerAt
		q       *dnswire.Message
		newDay  bool // ask each run one day later than the last
		release bool // hand each reply back, so its skeleton costs nothing
	}{
		{"provider NODATA for an unsigned domain", 1, unsigned.Providers[0], dnswire.NewQuery(1, unsigned.Apex, dnswire.TypeHTTPS, true), false, false},
		{"unsigned NODATA again on the same day", 0, unsigned.Providers[0], dnswire.NewQuery(1, unsigned.Apex, dnswire.TypeHTTPS, true), false, true},
		{"provider HTTPS answer of a signed adopter", 8, signed.Providers[0], dnswire.NewQuery(2, signed.Apex, dnswire.TypeHTTPS, true), false, false},
		{"TLD referral", 1, tldOf(t, w, unsigned), dnswire.NewQuery(3, unsigned.Apex, dnswire.TypeA, true), false, false},
		{"TLD referral to a signed child", 2, tldOf(t, w, signed), dnswire.NewQuery(4, signed.Apex, dnswire.TypeA, true), false, false},
		{"signed NODATA on a new day (signature-cache miss)", 24, negative.Providers[0], dnswire.NewQuery(5, negative.Apex, dnswire.TypeHTTPS, true), true, false},
	} {
		at := func() time.Time {
			if c.newDay {
				day++
				return answerTime.AddDate(0, 0, day)
			}
			return answerTime
		}
		if resp := c.h.HandleDNSAt(c.q, at()); resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("%s: rcode %v", c.what, resp.RCode)
		}
		if got := testing.AllocsPerRun(100, func() {
			if resp := c.h.HandleDNSAt(c.q, at()); c.release {
				resp.Release()
			}
		}); got > c.max {
			t.Errorf("%s: %v allocations, budget %v", c.what, got, c.max)
		}
	}

	resp := negative.Providers[0].HandleDNSAt(dnswire.NewQuery(6, negative.Apex, dnswire.TypeHTTPS, true), answerTime.AddDate(0, 0, day+1))
	if len(resp.Answer) != 0 || len(resp.Authority) != 2 || resp.Authority[0].Type != dnswire.TypeSOA || resp.Authority[1].Type != dnswire.TypeRRSIG {
		t.Fatalf("signed NODATA: answer %v, authority %v; want no answer, then SOA and its RRSIG", resp.Answer, resp.Authority)
	}
	_, zsk := negative.keys()
	eager, err := dnssec.SignRRset(zsk, resp.Authority[:1], sigInception, sigExpiration)
	if err != nil {
		t.Fatal(err)
	}
	eager.Data.(*dnswire.RRSIGData).SignatureBytes() // made now, not on the pack below
	if got, want := packed(t, resp.Authority[1]), packed(t, eager); got != want {
		t.Errorf("served NODATA RRSIG packs to %s, an eager sign-and-pack to %s", got, want)
	}
}

// TestSOAMemoUnderConcurrentDays: eight goroutines ask one multi-provider
// domain, whose primary provider changes from day to day, for its SOA on
// alternating days, so the domain's memo and its providers' SOA RDATA are
// replaced under them all the time. Every set must say what a set built
// from scratch for that day says.
func TestSOAMemoUnderConcurrentDays(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Intermittent == IntermitMultiProvider && len(d.Providers) > 1 && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0
	})
	if d == nil {
		t.Fatal("world has no multi-provider domain")
	}
	day := func(i int) time.Time { return answerTime.AddDate(0, 0, i%4) }
	primaries := map[*Provider]bool{}
	for i := 0; i < 4; i++ {
		primaries[d.ProvidersAt(day(i))[0]] = true
	}
	if len(primaries) < 2 {
		t.Fatalf("%s keeps one primary provider on the days asked", d.Apex)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < g+200; i++ {
				at := day(i)
				p := d.ProvidersAt(at)[0]
				rrs := d.SOARRset(at)
				soa, ok := rrs[0].Data.(*dnswire.SOAData)
				if len(rrs) != 1 || !ok || rrs[0].Name != d.Apex || soa.Serial != uint32(at.Unix()/86400) ||
					soa.MName != p.NSHosts[0] || soa.RName != "dns."+p.InfraDomain {
					t.Errorf("%s on %s: %v, want serial %d from %s", d.Apex, at.Format(time.DateOnly), rrs, at.Unix()/86400, p.NSHosts[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReferralShape: the referral sized in one go must say what the
// prepend-per-host one said — NS records in server order, glue last server
// first, the OPT record last, and for a signed child the DS and its RRSIG
// behind the NS set.
func TestReferralShape(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := steadyDomain(t, w, true, true)
	resp := tldOf(t, w, d).HandleDNSAt(dnswire.NewQuery(1, d.WWWName(), dnswire.TypeHTTPS, true), answerTime)
	p := d.Providers[0]
	var types []dnswire.Type
	for i, rr := range resp.Authority {
		types = append(types, rr.Type)
		if ns, ok := rr.Data.(*dnswire.NSData); ok && (rr.Name != d.Apex || ns.Host != p.NSHosts[i]) {
			t.Errorf("authority %d: %s NS %s, want %s NS %s", i, rr.Name, ns.Host, d.Apex, p.NSHosts[i])
		}
	}
	if want := []dnswire.Type{dnswire.TypeNS, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeRRSIG}; !slices.Equal(types, want) {
		t.Errorf("authority types %v, want %v", types, want)
	}
	if len(resp.Additional) != 3 || resp.Additional[2].Type != dnswire.TypeOPT {
		t.Fatalf("additional section %v, want two glue records then OPT", resp.Additional)
	}
	for i, host := range []string{p.NSHosts[1], p.NSHosts[0]} {
		if a := resp.Additional[i]; a.Name != host || a.Data.(*dnswire.AData).Addr != p.NSAddrs[1-i] {
			t.Errorf("glue %d: %s %v, want %s %v", i, a.Name, a.Data, host, p.NSAddrs[1-i])
		}
	}
	if resp.Authoritative || len(resp.Answer) != 0 {
		t.Errorf("referral is authoritative=%v with %d answers", resp.Authoritative, len(resp.Answer))
	}
}

// TestTLDSignsOncePerRRset: day workers that miss the TLD's signature
// cache together must come away with the one signature that was stored, not
// each with its own.
func TestTLDSignsOncePerRRset(t *testing.T) {
	srv := NewTLDServer("test.", simnet.NewAllocator().AllocV4("nic"), simnet.NewClock(answerTime), 1)
	const workers = 8
	got := make([]*dnswire.RR, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			resp := srv.HandleDNSAt(dnswire.NewQuery(uint16(i), "test.", dnswire.TypeSOA, true), answerTime)
			if len(resp.Answer) != 2 || resp.Answer[1].Type != dnswire.TypeRRSIG {
				t.Errorf("worker %d: answer %v", i, resp.Answer)
				return
			}
			got[i] = &srv.signCached(sigKey{kind: "soa"}, resp.Answer[:1])[0]
		}()
	}
	start.Done()
	done.Wait()
	for i, sig := range got {
		if sig != got[0] {
			t.Errorf("worker %d holds a different cached signature than worker 0", i)
		}
	}
}

// buildSeed7World builds the world whose key and signature bytes are pinned.
func buildSeed7World(t *testing.T) *World {
	t.Helper()
	w, err := BuildWorld(WorldConfig{Size: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSignatureBytesUnchanged pins the world's cryptography: for world seed
// 7, the DS digest of one signed adopter and the signature over its HTTPS
// RRset. Keys derive from (seed, zone, role) and signatures are RFC 6979,
// so each is one value, in every build of the world.
func TestSignatureBytesUnchanged(t *testing.T) {
	const (
		pinnedDomain   = "site000033.org."
		pinnedDSDigest = "7a9895d30ae2e36b69476acdb36fc5da4c8c0572bbc33f9edf6d5c23a1a306d3"
		pinnedHTTPSSig = "cf45f5c5b276aca9cc5e69db2ba593b64d9b9f8949c3f79a2f6a8110efe5c1f2" +
			"3f61342816c7bd239e2bfaaa02e9cb0a6ff61cd7723e229b3fb550730eac1a31"
		worlds = 8
	)
	for i := 0; i < worlds; i++ {
		w := buildSeed7World(t)
		d := findDomain(w, func(d *DomainState) bool {
			return d.Signed && d.DSUploaded && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() &&
				d.Profile != ProfileNone && d.HTTPSPublished(answerTime, d.Providers[0])
		})
		if d == nil || d.Apex != pinnedDomain {
			t.Fatalf("pinned domain is %s, world seed 7 now picks %v", pinnedDomain, d)
		}
		var sig, digest string
		resp := d.Providers[0].HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeHTTPS, true), answerTime)
		for _, rr := range resp.Answer {
			if s, ok := rr.Data.(*dnswire.RRSIGData); ok {
				sig = hex.EncodeToString(s.SignatureBytes())
			}
		}
		resp = tldOf(t, w, d).HandleDNSAt(dnswire.NewQuery(2, d.Apex, dnswire.TypeDS, true), answerTime)
		for _, rr := range resp.Answer {
			if ds, ok := rr.Data.(*dnswire.DSData); ok {
				digest = hex.EncodeToString(ds.Digest)
			}
		}
		if digest != pinnedDSDigest {
			t.Errorf("world %d: DS digest of %s = %s, pinned %s", i, d.Apex, digest, pinnedDSDigest)
		}
		if sig != pinnedHTTPSSig {
			t.Errorf("world %d: HTTPS RRSIG of %s = %s, pinned %s", i, d.Apex, sig, pinnedHTTPSSig)
		}
	}
}

// worldCrypto lists every key and signature byte a world serves: DNSKEY, DS
// and RRSIG records of the root, of every TLD and of every signed domain,
// packed and sorted. It goes through the caches the servers sign into, so
// on a fresh world it is also what fills them.
func worldCrypto(t *testing.T, w *World) []string {
	var out []string
	keep := func(sections ...[]dnswire.RR) {
		for _, rrs := range sections {
			for _, rr := range rrs {
				switch rr.Type {
				case dnswire.TypeDNSKEY, dnswire.TypeDS, dnswire.TypeRRSIG:
					wire, err := dnswire.PackRR(rr)
					if err != nil {
						t.Errorf("packing %s %s: %v", rr.Name, rr.Type, err)
					}
					out = append(out, hex.EncodeToString(wire))
				}
			}
		}
	}
	ask := func(h simnet.DNSHandlerAt, name string, typ dnswire.Type) {
		resp := h.HandleDNSAt(dnswire.NewQuery(1, name, typ, true), answerTime)
		keep(resp.Answer, resp.Authority)
	}
	root := func(name string, typ dnswire.Type) {
		rrs, sigs, _ := w.RootZone.Lookup(name, typ)
		keep(rrs, sigs)
	}
	root(".", dnswire.TypeDNSKEY)
	root(".", dnswire.TypeSOA)
	for tld, srv := range w.TLDs {
		root(tld, dnswire.TypeDS)
		for _, typ := range []dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeSOA, dnswire.TypeNS} {
			ask(srv, tld, typ)
		}
	}
	for _, d := range w.Domains {
		if !d.Signed {
			continue
		}
		ask(w.TLDs[dnswire.ParentName(d.Apex)], d.Apex, dnswire.TypeDS)
		for _, typ := range []dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeSOA} {
			ask(d.Providers[0], d.Apex, typ)
		}
	}
	slices.Sort(out)
	return out
}

// TestWorldCryptoIsReproducible: two worlds built from one config serve the
// same key and signature bytes, and so does a world whose cold signature
// caches eight goroutines fill at once.
func TestWorldCryptoIsReproducible(t *testing.T) {
	want := worldCrypto(t, buildSeed7World(t))
	if len(want) < 500 {
		t.Fatalf("world serves %d key and signature records, want hundreds", len(want))
	}
	if got := worldCrypto(t, buildSeed7World(t)); !slices.Equal(got, want) {
		t.Error("a second world from the same config serves different key or signature bytes")
	}

	raced := buildSeed7World(t)
	const workers = 8
	got := make([][]string, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = worldCrypto(t, raced)
		}()
	}
	start.Done()
	done.Wait()
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Errorf("worker %d of a raced cold world saw different key or signature bytes", i)
		}
	}
}

// TestSigCacheBounded signs one signed domain's SOA for more than
// sigCacheMax distinct days (the serial is the day number, so each day is
// new content): the domain's signature cache never holds more than
// sigCacheMax entries, and a signature made again after the clear equals
// the one made before it.
func TestSigCacheBounded(t *testing.T) {
	w, err := BuildWorld(WorldConfig{Size: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := findDomain(w, func(d *DomainState) bool {
		return d.Signed && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0
	})
	if d == nil {
		t.Fatal("world has no signed domain")
	}
	sign := func(day int) dnswire.RR {
		t.Helper()
		soa := d.SOARRset(StudyStart.Add(time.Duration(day) * 24 * time.Hour))
		if len(soa) == 0 {
			t.Fatalf("day %d: %s serves no SOA", day, d.Apex)
		}
		sig, ok := d.signRRset(soa)
		if !ok {
			t.Fatalf("day %d: %s SOA not signed", day, d.Apex)
		}
		return sig
	}
	first := sign(0)
	for day := 1; day <= sigCacheMax+10; day++ {
		sign(day)
		d.sigMu.Lock()
		n := len(d.sigCache)
		d.sigMu.Unlock()
		if n > sigCacheMax {
			t.Fatalf("day %d: signature cache holds %d entries, bound %d", day, n, sigCacheMax)
		}
	}
	key, ok := contentKey(d.SOARRset(StudyStart))
	if !ok {
		t.Fatal("SOA RRset does not pack")
	}
	d.sigMu.Lock()
	_, cached := d.sigCache[key]
	d.sigMu.Unlock()
	if cached {
		t.Fatal("day 0's signature survived more than sigCacheMax newer ones: the cache never cleared")
	}
	if got, want := packed(t, sign(0)), packed(t, first); got != want {
		t.Errorf("re-signed SOA after a clear packs to %s, want the first signature's %s", got, want)
	}
}

// packed returns a record's wire bytes, hex-encoded.
func packed(t *testing.T, rr dnswire.RR) string {
	t.Helper()
	wire, err := dnswire.PackRR(rr)
	if err != nil {
		t.Fatalf("packing %s %s: %v", rr.Name, rr.Type, err)
	}
	return hex.EncodeToString(wire)
}
