package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/scanner"
	"repro/internal/transport"
)

// TestServedRecordsStayReadOnly holds every consumer to the contract the
// authoritative side now depends on: a record a server hands out may be the
// very value it hands out next time — the cached RRSIG, the key's DNSKEY
// and DS RDATA, the provider's NS and glue RDATA — so nobody downstream may
// write through it. Deep copies of a signed adopter's answers are taken
// first; then the name goes through recursor → scanner, and through a
// four-frontend racing fleet whose client recycles its answer messages
// (pack, cache put, cache hit, stale serve, the losers' discard);
// then a whole day is scanned through a day replica of that fleet, every
// answer handed back with Client.Recycle and decoded over by the next; then
// the servers are asked again and must say exactly what they said.
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
	scanTypes := []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeSOA, dnswire.TypeNS}

	// ask collects deep copies of what the authoritatives say at `at`.
	ask := func() (out []dnswire.Message) {
		keep := func(m *dnswire.Message) {
			c := *m
			for _, sec := range []*[]dnswire.RR{&c.Answer, &c.Authority, &c.Additional} {
				rrs := make([]dnswire.RR, len(*sec))
				for i, rr := range *sec {
					rrs[i] = rr.Clone()
				}
				*sec = rrs
			}
			c.Question = append([]dnswire.Question(nil), m.Question...)
			out = append(out, c)
		}
		for _, typ := range append([]dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeTXT}, scanTypes...) {
			keep(p.HandleDNSAt(dnswire.NewQuery(1, d.Apex, typ, true), at))
		}
		keep(p.HandleDNSAt(dnswire.NewQuery(1, d.WWWName(), dnswire.TypeHTTPS, true), at))
		keep(p.HandleDNSAt(dnswire.NewQuery(1, p.NSHosts[0], dnswire.TypeA, true), at))
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeHTTPS, true), at)) // referral with DS
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, d.Apex, dnswire.TypeDS, true), at))
		keep(tld.HandleDNSAt(dnswire.NewQuery(1, tld.TLD, dnswire.TypeDNSKEY, true), at))
		return out
	}
	want := ask()

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
	if camp.Fleet.Cache.Stats().Hits == 0 {
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

	if got := ask(); !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("after serving, %s %s answers\n%v\nbefore it was\n%v", want[i].Question[0].Name, want[i].Question[0].Type, &got[i], &want[i])
			}
		}
	}
}
