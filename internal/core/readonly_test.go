package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/scanner"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestServedRecordsStayReadOnly holds every consumer to the contract the
// authoritative side now depends on: a record a server hands out may be the
// very value it hands out next time — the cached RRSIG, the key's DNSKEY
// and DS RDATA, the provider's NS and glue RDATA, a domain's memoised SOA
// set and the SOA RDATA its provider shares that day, its memoised HTTPS, A
// and AAAA sets, a child's memoised referral sections — so nobody
// downstream may write through it. Deep copies of a signed adopter's
// answers, of an unsigned adopter's at the same provider, of an unsigned ECH
// adopter's HTTPS sets and of a mismatch domain's A sets are taken first;
// then the name goes through recursor →
// scanner, and through a four-frontend racing fleet whose client recycles
// its answer messages (pack, cache put, cache hit, stale serve, the losers'
// discard); then a whole day is scanned through a day replica of that
// fleet, every answer handed back with Client.Recycle and decoded over by
// the next; then the servers are asked a day later, which replaces every
// SOA memo, the ECH adopter's HTTPS memos (its key has rotated) and the
// mismatch domain's A memos (an episode has begun): every answer handed out
// first must still say what it said, and asked again at its time the
// servers must say it too.
func TestServedRecordsStayReadOnly(t *testing.T) {
	camp, err := NewCampaign(CampaignConfig{
		Size: 2000, Seed: 7, DoHFrontends: 4,
		TransportMix:      transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		DoHStaleWindow:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := camp.World
	at := time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC)
	w.Clock.Set(at)

	var d *providers.DomainState
	for _, name := range w.Tranco.ListFor(at) {
		c, ok := w.Domain(name)
		if ok && c.Signed && c.DSUploaded && c.Intermittent == providers.IntermitNone && c.SwitchDay.IsZero() &&
			!c.ApexCNAME && !c.WWWCNAME && c.HTTPSPublished(at, c.Providers[0]) {
			d = c
			break
		}
	}
	if d == nil {
		t.Fatal("world has no steady signed adopter")
	}
	p, tld := d.Providers[0], w.TLDs[dnswire.ParentName(d.Apex)]
	// unsigned picks the steady unsigned domain with the smallest name that
	// has a www name and a TLD server and passes ok; it fails the test when
	// none does.
	unsigned := func(what string, ok func(*providers.DomainState) bool) *providers.DomainState {
		var u *providers.DomainState
		for _, c := range w.Domains {
			if !c.Signed && c.Intermittent == providers.IntermitNone && c.SwitchDay.IsZero() && len(c.NoNSEpisodes) == 0 &&
				!c.ApexCNAME && !c.WWWCNAME && c.HasWWW && w.TLDs[dnswire.ParentName(c.Apex)] != nil && ok(c) && (u == nil || c.Apex < u.Apex) {
				u = c
			}
		}
		if u == nil {
			t.Fatalf("world has no steady unsigned %s", what)
		}
		return u
	}
	u := unsigned("adopter at "+p.Name, func(c *providers.DomainState) bool {
		return c.Providers[0] == p && c.WWWHTTPS && c.HTTPSPublished(at, p)
	})
	utld := w.TLDs[dnswire.ParentName(u.Apex)]
	// An ECH adopter while ECH is on, and a mismatch domain half a day
	// before an episode: a day later its key has rotated, and the episode
	// has begun.
	echAt := time.Date(2023, 7, 3, 12, 0, 0, 0, time.UTC)
	e := unsigned("ECH adopter", func(c *providers.DomainState) bool {
		return c.ECH && c.WWWHTTPS && c.HTTPSPublished(echAt, c.Providers[0]) && c.HTTPSPublished(echAt.AddDate(0, 0, 1), c.Providers[0])
	})
	mis := unsigned("mismatch domain", func(c *providers.DomainState) bool {
		return len(c.MismatchEpisodes) > 0 && c.MismatchEpisodes[0].From.After(providers.StudyStart.AddDate(0, 0, 1))
	})
	misAt := mis.MismatchEpisodes[0].From.Add(-12 * time.Hour)
	if mis.InMismatch(misAt) || !mis.InMismatch(misAt.AddDate(0, 0, 1)) {
		t.Fatalf("%s: no mismatch episode begins within a day of %s", mis.Apex, misAt)
	}
	scanTypes := []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeSOA, dnswire.TypeNS}

	// held is every answer the servers handed out, as handed out.
	var held []*dnswire.Message
	// ask collects deep copies of what the authoritatives say at the first
	// asks' times moved on by shift days.
	ask := func(shift int) (out []dnswire.Message) {
		keep := func(m *dnswire.Message) {
			held = append(held, m)
			out = append(out, deepCopy(m))
		}
		for _, name := range []string{e.Apex, e.WWWName()} {
			keep(e.Providers[0].HandleDNSAt(dnswire.NewQuery(1, name, dnswire.TypeHTTPS, true), echAt.AddDate(0, 0, shift)))
		}
		for _, name := range []string{mis.Apex, mis.WWWName()} {
			keep(mis.Providers[0].HandleDNSAt(dnswire.NewQuery(1, name, dnswire.TypeA, true), misAt.AddDate(0, 0, shift)))
		}
		at := at.AddDate(0, 0, shift)
		for _, name := range []string{u.Apex, u.WWWName()} {
			for _, typ := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA} {
				keep(p.HandleDNSAt(dnswire.NewQuery(1, name, typ, true), at))
			}
		}
		for _, typ := range append([]dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeTXT}, scanTypes...) {
			keep(p.HandleDNSAt(dnswire.NewQuery(1, d.Apex, typ, true), at))
		}
		keep(p.HandleDNSAt(dnswire.NewQuery(1, d.WWWName(), dnswire.TypeHTTPS, true), at))
		keep(p.HandleDNSAt(dnswire.NewQuery(1, p.NSHosts[0], dnswire.TypeA, true), at))
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeHTTPS, true), at)) // referral with DS
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeDS, true), at))
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, tld.TLD, dnswire.TypeDNSKEY, true), at))
		// The unsigned neighbour's SOA memo, as an answer and as a NODATA
		// authority, and its referral's shared sections.
		keep(p.HandleDNSAt(dnswire.NewQuery(1, u.Apex, dnswire.TypeSOA, true), at))
		keep(p.HandleDNSAt(dnswire.NewQuery(1, u.Apex, dnswire.TypeTXT, true), at))
		keep(utld.HandleDNSAt(dnswire.NewQuery(1, u.Apex, dnswire.TypeHTTPS, true), at))
		return out
	}
	want := ask(0)
	checkSharing(t, at, p, tld, d, u, utld)

	// Recursor → scanner, the paper's direct path.
	direct := scanner.New(w.Net, w.GoogleAddr, w.CFResolverAddr, w.Whois)
	if obs := direct.ScanDomain(d.Apex); !obs.HasHTTPS() || !obs.AD || !obs.Signed || len(obs.NS) == 0 {
		t.Fatalf("direct scan of %s: %+v", d.Apex, obs)
	}

	// The fleet, its client recycling answers: a cold pass fills the shared
	// cache, a second one hits it.
	cl := camp.Fleet.Client
	cl.SetReuseAnswers(true)
	query := func(stage string) {
		t.Helper()
		for _, typ := range scanTypes {
			resp, err := cl.Query(d.Apex, typ, true)
			if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
				t.Fatalf("%s: %s/%s through the fleet: %v, %v", stage, d.Apex, typ, err, resp)
			}
		}
	}
	query("cold")
	query("cached")
	if camp.Fleet.TotalStats().CacheHits == 0 {
		t.Error("second pass never hit the fleet cache")
	}
	// Past every TTL with the provider unreachable, the frontends serve stale.
	for _, addr := range p.NSAddrs {
		w.Net.SetAddrDown(addr, true)
	}
	w.Clock.Advance(20 * time.Minute)
	stale := cl.StaleAnswers()
	query("stale")
	if cl.StaleAnswers() == stale {
		t.Error("no answer was served stale with the provider down")
	}
	for _, addr := range p.NSAddrs {
		w.Net.SetAddrDown(addr, false)
	}
	if st := camp.Fleet.StrategyStats(); st.Races == 0 {
		t.Errorf("the racing client never raced (no loser was discarded): %+v", st)
	}

	// A scanned day: the scanner returns each answer to the day replica's
	// client once read, so eight workers decode into recycled message graphs
	// all day. Only the client's own decodes may ever be in that pool.
	day := at.Truncate(24 * time.Hour)
	res := camp.runDay(camp.newDayContext(day), day)
	if o := res.apexSnap.Obs[d.Apex]; o == nil || !o.HasHTTPS() || !o.Signed || len(o.NS) == 0 {
		t.Errorf("day scan of %s: %+v", d.Apex, o)
	}

	// A day later replaces every SOA memo, and the ECH and mismatch
	// domains' answer memos; nothing handed out may move.
	next := ask(1)
	if serial(next[len(next)-3]) == serial(want[len(want)-3]) {
		t.Errorf("%s serves one SOA serial on two days", u.Apex)
	}
	for i := 0; i < 4; i++ {
		if reflect.DeepEqual(next[i].Answer, want[i].Answer) {
			t.Errorf("%s %s answers alike a day apart: its memo was never replaced", want[i].Question[0].Name, want[i].Question[0].Type)
		}
	}
	diff := func(what string, got []dnswire.Message) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, %s %s answers\n%v\nbefore it was\n%v", what, want[i].Question[0].Name, want[i].Question[0].Type, &got[i], &want[i])
			}
		}
	}
	var first []dnswire.Message
	for _, m := range held[:len(want)] {
		first = append(first, deepCopy(m))
	}
	diff("after serving and a day change, the first answer handed out", first)
	diff("after serving", ask(0))
}

// deepCopy copies a message and every record in it.
func deepCopy(m *dnswire.Message) dnswire.Message {
	c := *m
	for _, sec := range []*[]dnswire.RR{&c.Answer, &c.Authority, &c.Additional} {
		rrs := make([]dnswire.RR, len(*sec))
		for i, rr := range *sec {
			rrs[i] = rr.Clone()
		}
		*sec = rrs
	}
	c.Question = append([]dnswire.Question(nil), m.Question...)
	return c
}

// serial is the SOA serial of an unsigned SOA answer.
func serial(m dnswire.Message) uint32 { return m.Answer[0].Data.(*dnswire.SOAData).Serial }

// checkSharing pins what the authoritatives share between answers, and
// that a consumer may append to any section it is handed: signed d and
// unsigned u are hosted by p, d's delegation is in tld and u's in utld.
func checkSharing(t *testing.T, at time.Time, p *providers.Provider, tld *providers.TLDServer, d, u *providers.DomainState, utld *providers.TLDServer) {
	t.Helper()
	ask := func(h simnet.DNSHandlerAt, name string, typ dnswire.Type) *dnswire.Message {
		return h.HandleDNSAt(dnswire.NewQuery(1, name, typ, true), at)
	}
	soa, nodata := ask(p, u.Apex, dnswire.TypeSOA).Answer, ask(p, u.Apex, dnswire.TypeTXT).Authority
	if len(soa) != 1 || len(nodata) != 1 || &soa[0] != &nodata[0] {
		t.Errorf("%s: the SOA answer and the NODATA authority are not one memoised set", u.Apex)
	}
	signed := ask(p, d.Apex, dnswire.TypeSOA).Answer
	if len(signed) != 2 || signed[0].Data != soa[0].Data {
		t.Errorf("%s and %s at %s do not share their SOA RDATA: %v, %v", d.Apex, u.Apex, p.Name, signed, soa)
	}
	refA, refB := ask(utld, u.Apex, dnswire.TypeA), ask(utld, u.Apex, dnswire.TypeA)
	if &refA.Authority[0] != &refB.Authority[0] || &refA.Additional[0] != &refB.Additional[0] {
		t.Errorf("two referrals to %s do not share their sections", u.Apex)
	}
	dsA, dsB := ask(tld, d.Apex, dnswire.TypeA), ask(tld, d.Apex, dnswire.TypeA)
	if sameArray(dsA.Authority, dsB.Authority) {
		t.Errorf("two referrals to signed %s appended their DS and RRSIG into one array", d.Apex)
	}
	for _, name := range []string{u.Apex, u.WWWName()} {
		for _, typ := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA} {
			x, y := ask(p, name, typ).Answer, ask(p, name, typ).Answer
			if len(x) == 0 || &x[0] != &y[0] {
				t.Errorf("%s %s: two answers are not one memoised set", name, typ)
			}
			appendsStayApart(t, "memoised "+typ.String()+" answer", x, y)
		}
	}
	appendsStayApart(t, "memoised SOA answer", soa, ask(p, u.Apex, dnswire.TypeSOA).Answer)
	appendsStayApart(t, "memoised NODATA authority", nodata, ask(p, u.Apex, dnswire.TypeTXT).Authority)
	appendsStayApart(t, "referral authority", refA.Authority, refB.Authority)
	appendsStayApart(t, "referral additional", refA.Additional, refB.Additional)
}

// sameArray reports whether two non-empty slices end their capacity at one
// element, that is, share a backing array.
func sameArray(a, b []dnswire.RR) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// appendsStayApart has two consumers each append a record to a section they
// were handed: each must read back its own.
func appendsStayApart(t *testing.T, what string, a, b []dnswire.RR) {
	t.Helper()
	x := append(a, dnswire.RR{Name: "consumer-a.invalid.", Type: dnswire.TypeTXT})
	y := append(b, dnswire.RR{Name: "consumer-b.invalid.", Type: dnswire.TypeTXT})
	if x[len(a)].Name != "consumer-a.invalid." || y[len(b)].Name != "consumer-b.invalid." {
		t.Errorf("%s: one consumer's append reached another's", what)
	}
}
