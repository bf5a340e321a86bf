package providers

import (
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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
// each run, its SOA carries a new serial, so every run builds a new SOA box
// that signs itself — and a signature nobody reads costs no ECDSA step.
// That NODATA's RRSIG must then pack to the bytes of an eager sign-and-pack
// of the same SOA. Every set a server hands out is a box that holds its
// RRSIG beside its records, so warm, any answer of a provider or TLD costs
// its reply skeleton and nothing else, signed or not, and released it costs
// nothing; a referral costs the skeleton, its sections being the child's
// memo, and for a signed child one more array for the DS and its RRSIG
// behind the shared NS set.
func TestAuthoritativeAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := buildTestWorld(t, 2000)
	unsigned, signed := steadyDomain(t, w, false, false), steadyDomain(t, w, true, true)
	adopter := steadyDomain(t, w, false, true)
	negative := findDomain(w, func(d *DomainState) bool {
		return d.Signed && d.Profile == ProfileNone && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() &&
			len(d.NoNSEpisodes) == 0 && !d.ApexCNAME
	})
	if negative == nil {
		t.Fatal("world has no steady signed non-adopter")
	}
	sp, stld := signed.Providers[0], tldOf(t, w, signed)
	do := func(name string, typ dnswire.Type) *dnswire.Message { return dnswire.NewQuery(7, name, typ, true) }
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
		{"provider HTTPS answer of a signed adopter", 1, sp, dnswire.NewQuery(2, signed.Apex, dnswire.TypeHTTPS, true), false, false},
		{"unsigned apex HTTPS again", 0, adopter.Providers[0], dnswire.NewQuery(2, adopter.Apex, dnswire.TypeHTTPS, true), false, true},
		{"A again", 0, adopter.Providers[0], dnswire.NewQuery(2, adopter.Apex, dnswire.TypeA, true), false, true},
		{"AAAA again", 0, adopter.Providers[0], dnswire.NewQuery(2, adopter.Apex, dnswire.TypeAAAA, true), false, true},
		{"unsigned NS again", 0, adopter.Providers[0], do(adopter.Apex, dnswire.TypeNS), false, true},
		{"signed HTTPS again", 0, sp, do(signed.Apex, dnswire.TypeHTTPS), false, true},
		{"signed A again", 0, sp, do(signed.Apex, dnswire.TypeA), false, true},
		{"signed SOA again", 0, sp, do(signed.Apex, dnswire.TypeSOA), false, true},
		{"signed DNSKEY again", 0, sp, do(signed.Apex, dnswire.TypeDNSKEY), false, true},
		{"signed NS again", 0, sp, do(signed.Apex, dnswire.TypeNS), false, true},
		{"TLD DS with DO", 0, stld, do(signed.Apex, dnswire.TypeDS), false, true},
		{"TLD apex SOA with DO", 0, stld, do(stld.TLD, dnswire.TypeSOA), false, true},
		{"TLD apex NS with DO", 0, stld, do(stld.TLD, dnswire.TypeNS), false, true},
		{"TLD apex DNSKEY with DO", 0, stld, do(stld.TLD, dnswire.TypeDNSKEY), false, true},
		{"TLD referral", 1, tldOf(t, w, unsigned), dnswire.NewQuery(3, unsigned.Apex, dnswire.TypeA, true), false, false},
		{"TLD referral to a signed child", 2, stld, dnswire.NewQuery(4, signed.Apex, dnswire.TypeA, true), false, false},
		{"signed NODATA on a new day (a new SOA box)", 20, negative.Providers[0], dnswire.NewQuery(5, negative.Apex, dnswire.TypeHTTPS, true), true, false},
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
	eager, err := dnssec.SignRRset(negative.keys().zsk, resp.Authority[:1], sigInception, sigExpiration)
	if err != nil {
		t.Fatal(err)
	}
	eager.Data.(*dnswire.RRSIGData).SignatureBytes() // made now, not on the pack below
	if got, want := packed(t, resp.Authority[1]), packed(t, eager); got != want {
		t.Errorf("served NODATA RRSIG packs to %s, an eager sign-and-pack to %s", got, want)
	}
}

// TestSOAMemoUnderConcurrentDays: eight goroutines ask one multi-provider
// domain, whose primary provider and provider arrangement change from day
// to day, for its SOA and NS sets on alternating days, so the domain's
// memos and its providers' SOA RDATA are replaced under them all the time.
// Every set must say what a set built from scratch for that day says.
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
				rrs := d.soaRRset(at).records()
				soa, ok := rrs[0].Data.(*dnswire.SOAData)
				if len(rrs) != 1 || !ok || rrs[0].Name != d.Apex || soa.Serial != uint32(at.Unix()/86400) ||
					soa.MName != p.NSHosts[0] || soa.RName != "dns."+p.InfraDomain {
					t.Errorf("%s on %s: %v, want serial %d from %s", d.Apex, at.Format(time.DateOnly), rrs, at.Unix()/86400, p.NSHosts[0])
					return
				}
				var hosts []string
				for _, rr := range d.nsRRset(at).records() {
					hosts = append(hosts, rr.Data.(*dnswire.NSData).Host)
				}
				var want []string
				for _, p := range d.ProvidersAt(at) {
					want = append(want, p.NSHosts...)
				}
				if !slices.Equal(hosts, want) {
					t.Errorf("%s on %s: NS %v, want %v", d.Apex, at.Format(time.DateOnly), hosts, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnswerMemoUnderConcurrentDays: eight goroutines ask an ECH adopter's
// apex and www for their HTTPS, A and AAAA sets at times on both sides of
// ECH key rotations and of the h3-29 sunset, a Cloudflare default without
// ECH the same (only the sunset moves its set), a mismatch domain in and out
// of an IP-hint mismatch episode, and a signed adopter and a signed
// non-adopter, apex SOA, NS and DNSKEY too, on four neighbouring days, all
// with DO, so the answer memos are replaced and their boxes sign themselves
// under them all the time. Every answer, RRSIG included, must pack to a set
// built from scratch for its time and, for a signed domain, an eager
// SignRRset over it.
func TestAnswerMemoUnderConcurrentDays(t *testing.T) {
	w := buildTestWorld(t, 2000)
	still := func(d *DomainState) bool {
		return d.Intermittent == IntermitNone && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0 &&
			!d.ApexCNAME && !d.WWWCNAME && d.HasWWW
	}
	steady := func(d *DomainState, at time.Time) bool { return still(d) && d.HTTPSPublished(at, d.Providers[0]) }
	early := H3Draft29SunsetDate.Add(-2 * time.Hour)
	ech := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && d.WWWHTTPS && steady(d, early) && d.Providers[0].echListFor(d, early) != nil
	})
	plain := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && !d.ECH && steady(d, early)
	})
	mis := findDomain(w, func(d *DomainState) bool {
		return len(d.MismatchEpisodes) > 0 && d.MismatchEpisodes[0].From.After(StudyStart) && d.HintV4 &&
			steady(d, d.MismatchEpisodes[0].From.Add(-12*time.Hour))
	})
	signed := findDomain(w, func(d *DomainState) bool { return d.Signed && d.WWWHTTPS && steady(d, answerTime) })
	negative := findDomain(w, func(d *DomainState) bool { return d.Signed && d.Profile == ProfileNone && still(d) })
	if ech == nil || plain == nil || mis == nil || signed == nil || negative == nil {
		t.Fatalf("world lacks an ECH adopter (%v), a Cloudflare default without ECH (%v), a mismatch domain (%v), a signed adopter (%v) or a signed non-adopter (%v)",
			ech, plain, mis, signed, negative)
	}
	type ask struct {
		d    *DomainState
		name string
		typ  dnswire.Type
		at   time.Time
	}
	var asks []ask
	add := func(d *DomainState, at time.Time, apexTypes ...dnswire.Type) {
		for _, name := range []string{d.Apex, d.WWWName()} {
			for _, typ := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA} {
				asks = append(asks, ask{d, name, typ, at})
			}
		}
		for _, typ := range apexTypes {
			asks = append(asks, ask{d, d.Apex, typ, at})
		}
	}
	for i := 0; i < 4; i++ {
		at := early.Add(time.Duration(i) * echRotationPeriod) // the sunset falls between the second and the third
		add(ech, at)
		add(plain, at)
		for _, d := range []*DomainState{signed, negative} {
			add(d, answerTime.AddDate(0, 0, i), dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeDNSKEY)
		}
	}
	from := mis.MismatchEpisodes[0].From
	add(mis, from.Add(-12*time.Hour))
	add(mis, from.Add(12*time.Hour))
	p := ech.Providers[0]
	if sameList(p.echListFor(ech, early), p.echListFor(ech, early.Add(echRotationPeriod))) ||
		mis.InMismatch(from.Add(-12*time.Hour)) || !mis.InMismatch(from.Add(12*time.Hour)) {
		t.Fatal("the times asked cross no ECH rotation or no mismatch episode boundary")
	}
	// fresh packs what a's answer says, built from nothing but the domain's
	// state and, for a signed domain, keys derived anew: the set (a NODATA's
	// SOA) and an eagerly made RRSIG over it.
	fresh := func(a ask) string {
		d, p := a.d, a.d.Providers[0]
		soa := []dnswire.RR{{Name: d.Apex, Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 3600, Data: &dnswire.SOAData{
			MName: p.NSHosts[0], RName: "dns." + p.InfraDomain, Serial: uint32(a.at.Unix() / 86400),
			Refresh: 10000, Retry: 2400, Expire: 604800, Minimum: 300}}}
		rr := dnswire.RR{Name: a.name, Type: a.typ, Class: dnswire.ClassINET, TTL: d.TTL}
		var rrs []dnswire.RR
		switch a.typ {
		case dnswire.TypeA:
			rr.Data = &dnswire.AData{Addr: d.CurrentV4(a.at)}
			rrs = []dnswire.RR{rr}
		case dnswire.TypeAAAA:
			rr.Data = &dnswire.AAAAData{Addr: d.OriginV6}
			if d.Proxied {
				rr.Data = &dnswire.AAAAData{Addr: d.AnycastV6}
			}
			rrs = []dnswire.RR{rr}
		case dnswire.TypeHTTPS:
			if d.HTTPSPublished(a.at, p) && (a.name == d.Apex || d.WWWHTTPS) {
				rrs = d.newHTTPSSet(a.name, a.at.Before(H3Draft29SunsetDate), p.echListFor(d, a.at)).records()
			}
		case dnswire.TypeSOA:
			rrs = soa
		case dnswire.TypeNS:
			for _, host := range p.NSHosts {
				rrs = append(rrs, dnswire.RR{Name: d.Apex, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600, Data: &dnswire.NSData{Host: host}})
			}
		case dnswire.TypeDNSKEY:
			rrs = []dnswire.RR{dnssec.DeriveKey(d.keySeed, d.Apex, true).DNSKEY(3600), dnssec.DeriveKey(d.keySeed, d.Apex, false).DNSKEY(3600)}
		}
		if rrs == nil {
			rrs = soa
		}
		if d.Signed {
			sig, err := dnssec.SignRRset(dnssec.DeriveKey(d.keySeed, d.Apex, rrs[0].Type == dnswire.TypeDNSKEY), rrs, sigInception, sigExpiration)
			if err != nil {
				t.Fatal(err)
			}
			sig.Data.(*dnswire.RRSIGData).SignatureBytes()
			rrs = append(slices.Clip(rrs), sig)
		}
		return packedSet(rrs)
	}
	want := make([]string, len(asks))
	for i, a := range asks {
		want[i] = fresh(a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < g+300; i++ {
				a := asks[i%len(asks)]
				resp := a.d.Providers[0].HandleDNSAt(dnswire.NewQuery(1, a.name, a.typ, true), a.at)
				got := resp.Answer
				if len(got) == 0 {
					got = resp.Authority
				}
				if packedSet(got) != want[i%len(asks)] || cap(got) != len(got) {
					t.Errorf("%s %s at %s: %v (cap %d), want %s", a.name, a.typ, a.at, got, cap(got), want[i%len(asks)])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSignedCNAMEChain: a CNAME pathology owner's answer is the one that
// joins two boxes, in the order [CNAME, target, RRSIG(CNAME),
// RRSIG(target)], with the target's RRSIG the one its own box carries and
// each RRSIG packing to an eager sign of its set.
func TestSignedCNAMEChain(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Signed && d.WWWCNAME && d.HasWWW && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0
	})
	if d == nil {
		t.Fatal("world has no steady signed domain whose www is a CNAME")
	}
	p := d.Providers[0]
	got := p.HandleDNSAt(dnswire.NewQuery(1, d.WWWName(), dnswire.TypeA, true), answerTime).Answer
	var types []dnswire.Type
	for _, rr := range got {
		types = append(types, rr.Type)
	}
	if want := []dnswire.Type{dnswire.TypeCNAME, dnswire.TypeA, dnswire.TypeRRSIG, dnswire.TypeRRSIG}; !slices.Equal(types, want) {
		t.Fatalf("www A answer types %v, want %v", types, want)
	}
	if apex := p.HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeA, true), answerTime).Answer; apex[1].Data != got[3].Data {
		t.Error("the chain's target RRSIG is not the one the target's box carries")
	}
	for i, set := range [][]dnswire.RR{got[:1], got[1:2]} {
		eager, err := dnssec.SignRRset(d.keys().zsk, set, sigInception, sigExpiration)
		if err != nil {
			t.Fatal(err)
		}
		if packed(t, got[2+i]) != packed(t, eager) {
			t.Errorf("RRSIG %d of the chain packs unlike an eager sign of %v", i, set)
		}
	}
	if plain := p.HandleDNSAt(dnswire.NewQuery(1, d.WWWName(), dnswire.TypeA, false), answerTime).Answer; len(plain) != 2 {
		t.Errorf("www A without DO: %v, want the CNAME and the A record", plain)
	}
}

// TestDomainStateSizeClass: a world holds one DomainState per domain, so
// the answer memos hang off one lazily made table rather than widening the
// struct past its 448-byte size class (on 64-bit platforms).
func TestDomainStateSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(DomainState{}); n > 448 {
		t.Errorf("DomainState is %d bytes, past the 448-byte size class", n)
	}
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

// TestTLDSignsOncePerRRset: day workers that ask the TLD's apex SOA with
// DO together must all come away with the one signature its box made, not
// each with its own.
func TestTLDSignsOncePerRRset(t *testing.T) {
	srv := newTLDServer("test.", simnet.NewAllocator().AllocV4("nic"), simnet.NewClock(answerTime), 1)
	const workers = 8
	got := make([]*dnswire.RRSIGData, workers)
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
			got[i] = resp.Answer[1].Data.(*dnswire.RRSIGData)
		}()
	}
	start.Done()
	done.Wait()
	for i, sig := range got {
		if sig != got[0] {
			t.Errorf("worker %d holds a different signature than worker 0", i)
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
					wire, err := dnswire.PackRR(nil, rr)
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

// TestSigCacheBounded: a signed domain's SOA sets sit in four day slots,
// and each box signs once. Asking day d, then d+1 to d+3, then d again
// returns the identical signed slice, so day workers on neighbouring days
// do not evict each other's; day d+4 replaces day d's box, and the
// signature made again packs to the first one's bytes.
func TestSigCacheBounded(t *testing.T) {
	w, err := BuildWorld(WorldConfig{Size: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := findDomain(w, func(d *DomainState) bool {
		return d.Signed && d.Intermittent == IntermitNone && d.SwitchDay.IsZero() && len(d.NoNSEpisodes) == 0 && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("world has no signed domain")
	}
	soa := func(day int) []dnswire.RR {
		t.Helper()
		at := StudyStart.AddDate(0, 0, day)
		rrs := d.Providers[0].HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeSOA, true), at).Answer
		if len(rrs) != 2 || rrs[1].Type != dnswire.TypeRRSIG {
			t.Fatalf("day %d: %s SOA answer %v, want the SOA and its RRSIG", day, d.Apex, rrs)
		}
		if again := d.Providers[0].HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeSOA, true), at).Answer; &again[0] != &rrs[0] {
			t.Fatalf("day %d: two asks on one day got two SOA boxes", day)
		}
		return rrs
	}
	first := soa(0)
	for day := 1; day <= 3; day++ {
		soa(day)
	}
	if again := soa(0); &again[0] != &first[0] || len(again) != len(first) {
		t.Error("asking the next three days replaced day 0's signed SOA box")
	}
	soa(4)
	remade := soa(0)
	if &remade[0] == &first[0] {
		t.Fatal("day 4 did not replace day 0's SOA box")
	}
	if got, want := packed(t, remade[1]), packed(t, first[1]); got != want {
		t.Errorf("re-signed SOA after its slot was replaced packs to %s, want the first signature's %s", got, want)
	}
}

// packed returns a record's wire bytes, hex-encoded.
func packed(t *testing.T, rr dnswire.RR) string {
	t.Helper()
	wire, err := dnswire.PackRR(nil, rr)
	if err != nil {
		t.Fatalf("packing %s %s: %v", rr.Name, rr.Type, err)
	}
	return hex.EncodeToString(wire)
}

// packedSet returns an RRset's wire bytes, hex-encoded, or the packing error.
func packedSet(rrs []dnswire.RR) string {
	var out string
	for _, rr := range rrs {
		wire, err := dnswire.PackRR(nil, rr)
		if err != nil {
			return err.Error()
		}
		out += hex.EncodeToString(wire)
	}
	return out
}
