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
// set and the SOA RDATA its provider shares that day, a child's memoised
// referral sections — so nobody downstream may write through it. Deep
// copies of a signed adopter's answers, and of an unsigned neighbour's at
// the same provider, are taken first; then the name goes through recursor →
// scanner, and through a four-frontend racing fleet whose client recycles
// its answer messages (pack, cache put, cache hit, stale serve, the losers'
// discard); then a whole day is scanned through a day replica of that
// fleet, every answer handed back with Client.Recycle and decoded over by
// the next; then the servers are asked on the next day, which replaces
// every SOA memo: every answer handed out on the first day must still say
// what it said, and asked again on that day the servers must say it too.
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
	var u *providers.DomainState
	for _, c := range w.Domains {
		if !c.Signed && c.Providers[0] == p && c.Intermittent == providers.IntermitNone && c.SwitchDay.IsZero() &&
			len(c.NoNSEpisodes) == 0 && !c.ApexCNAME && w.TLDs[dnswire.ParentName(c.Apex)] != nil && (u == nil || c.Apex < u.Apex) {
			u = c
		}
	}
	if u == nil {
		t.Fatalf("world has no steady unsigned domain at %s", p.Name)
	}
	utld := w.TLDs[dnswire.ParentName(u.Apex)]
	scanTypes := []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeSOA, dnswire.TypeNS}

	// held is every answer the servers handed out, as handed out.
	var held []*dnswire.Message
	// ask collects deep copies of what the authoritatives say at a time.
	ask := func(at time.Time) (out []dnswire.Message) {
		keep := func(m *dnswire.Message) {
			held = append(held, m)
			out = append(out, deepCopy(m))
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
	want := ask(at)
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

	// The next day replaces every SOA memo; nothing handed out may move.
	next := ask(at.AddDate(0, 0, 1))
	if serial(next[len(next)-3]) == serial(want[len(want)-3]) {
		t.Errorf("%s serves one SOA serial on two days", u.Apex)
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
	diff("after serving", ask(at))
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
