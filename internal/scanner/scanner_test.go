package scanner

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/providers"
	"repro/internal/simnet"
	"repro/internal/svcb"
	"repro/internal/transport"
)

// scanWorld builds a small world + scanner fixture.
func scanWorld(t *testing.T) (*providers.World, *Scanner) {
	t.Helper()
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w.Clock.Set(time.Date(2023, 9, 15, 12, 0, 0, 0, time.UTC))
	return w, New(w.Net, w.GoogleAddr, w.CFResolverAddr, w.Whois)
}

func findApex(w *providers.World, pred func(d *providers.DomainState) bool) string {
	for apex, d := range w.Domains {
		if pred(d) {
			return apex
		}
	}
	return ""
}

func TestScanDomainAdopter(t *testing.T) {
	w, sc := scanWorld(t)
	apex := findApex(w, func(d *providers.DomainState) bool {
		return d.Profile == providers.ProfileCFDefault && !d.ApexCNAME &&
			d.Intermittent == providers.IntermitNone && !d.AdoptDay.After(w.Clock.Now())
	})
	if apex == "" {
		t.Fatal("no adopter found")
	}
	obs := sc.ScanDomain(apex)
	if obs.Err != "" {
		t.Fatalf("scan error: %s", obs.Err)
	}
	if !obs.HasHTTPS() {
		t.Fatal("no HTTPS records observed")
	}
	rec := obs.HTTPS[0]
	if rec.Priority != 1 || rec.Target != "." {
		t.Errorf("CF default shape wrong: %+v", rec)
	}
	if len(rec.V4Hints) == 0 || len(rec.V6Hints) == 0 {
		t.Error("missing IP hints")
	}
	// Follow-up queries populated.
	if len(obs.A) == 0 || len(obs.NS) == 0 || !obs.HasSOA {
		t.Errorf("follow-up data missing: A=%v NS=%v SOA=%v", obs.A, obs.NS, obs.HasSOA)
	}
}

func TestScanDomainNonAdopter(t *testing.T) {
	w, sc := scanWorld(t)
	apex := findApex(w, func(d *providers.DomainState) bool {
		return d.Profile == providers.ProfileNone
	})
	if apex == "" {
		t.Fatal("no non-adopter found")
	}
	obs := sc.ScanDomain(apex)
	if obs.HasHTTPS() {
		t.Error("phantom HTTPS records")
	}
	// No follow-up queries for non-adopters (the paper's protocol).
	if len(obs.A) != 0 || len(obs.NS) != 0 {
		t.Error("follow-up queries issued for non-adopter")
	}
}

func TestScanDomainCNAMEChase(t *testing.T) {
	w, sc := scanWorld(t)
	apex := findApex(w, func(d *providers.DomainState) bool { return d.ApexCNAME })
	if apex == "" {
		t.Skip("no apex-CNAME domain at this scale")
	}
	obs := sc.ScanDomain(apex)
	if len(obs.CNAMEChain) == 0 {
		t.Error("CNAME chain not recorded")
	}
	if !obs.HasHTTPS() {
		t.Error("HTTPS record not found through CNAME")
	}
}

func TestScanDomainECHSummary(t *testing.T) {
	w, sc := scanWorld(t)
	w.Clock.Set(time.Date(2023, 7, 1, 12, 0, 0, 0, time.UTC)) // ECH active
	apex := findApex(w, func(d *providers.DomainState) bool {
		return d.ECH && d.Profile == providers.ProfileCFDefault && !d.ApexCNAME &&
			d.Intermittent == providers.IntermitNone && !d.AdoptDay.After(w.Clock.Now())
	})
	if apex == "" {
		t.Fatal("no ECH domain")
	}
	obs := sc.ScanDomain(apex)
	if !obs.HasHTTPS() || !obs.HTTPS[0].HasECH {
		t.Fatal("ECH not observed")
	}
	if obs.HTTPS[0].ECHPublicName != "cloudflare-ech.com" {
		t.Errorf("public name = %q", obs.HTTPS[0].ECHPublicName)
	}
	if obs.HTTPS[0].ECHKeyHash == 0 {
		t.Error("key hash not computed")
	}
}

func TestScanListCountsAndRanks(t *testing.T) {
	w, sc := scanWorld(t)
	list := w.Tranco.ListFor(w.Clock.Now())[:300]
	snap := sc.ScanList(w.Clock.Now(), "apex", list)
	if snap.Total != 300 {
		t.Errorf("Total = %d", snap.Total)
	}
	if len(snap.Obs) == 0 {
		t.Fatal("no adopters in 300 domains")
	}
	for name, obs := range snap.Obs {
		if obs.Rank < 1 || obs.Rank > 300 {
			t.Errorf("%s rank = %d", name, obs.Rank)
		}
	}
	// www variant prefixes names.
	wsnap := sc.ScanList(w.Clock.Now(), "www", list[:50])
	for name := range wsnap.Obs {
		if len(name) < 4 || name[:4] != "www." {
			t.Errorf("www obs key %q not prefixed", name)
		}
	}
}

func TestScanNameServers(t *testing.T) {
	w, sc := scanWorld(t)
	list := w.Tranco.ListFor(w.Clock.Now())[:300]
	snap := sc.ScanList(w.Clock.Now(), "apex", list)
	ns := sc.ScanNameServers(w.Clock.Now(), snap)
	if len(ns.Servers) == 0 {
		t.Fatal("no name servers observed")
	}
	cloudflareSeen := false
	for _, nso := range ns.Servers {
		if len(nso.Addrs) == 0 {
			t.Errorf("NS %s unresolved", nso.Host)
		}
		if nso.Org == "Cloudflare" {
			cloudflareSeen = true
		}
	}
	if !cloudflareSeen {
		t.Error("Cloudflare NS not attributed")
	}
}

func TestResolverFallback(t *testing.T) {
	w, sc := scanWorld(t)
	apex := findApex(w, func(d *providers.DomainState) bool {
		return d.Profile == providers.ProfileCFDefault && !d.ApexCNAME &&
			d.Intermittent == providers.IntermitNone && !d.AdoptDay.After(w.Clock.Now())
	})
	// Take the primary resolver down: the scanner must fall back to the
	// backup (1.1.1.1), as the paper's framework does.
	w.Net.SetAddrDown(w.GoogleAddr, true)
	obs := sc.ScanDomain(apex)
	if obs.Err != "" || !obs.HasHTTPS() {
		t.Errorf("fallback scan failed: %+v", obs)
	}
	// Both down: error recorded, no panic.
	w.Net.SetAddrDown(w.CFResolverAddr, true)
	obs = sc.ScanDomain(apex)
	if obs.Err == "" {
		t.Error("error not recorded with both resolvers down")
	}
}

// TestScanViaDoHTransport routes the scanner through an encrypted-DNS
// fleet (a DoH and a DoT frontend over the public recursors, shared
// cache) and checks the full scan sequence still works — including when
// simnet failure injection takes one frontend down mid-campaign.
func TestScanViaDoHTransport(t *testing.T) {
	w, sc := scanWorld(t)
	fl := transport.NewFleet(w.Net, w.Clock, transport.FleetConfig{
		Balance: transport.BalanceRoundRobin, Seed: 5,
	})
	addrs := make([]netip.AddrPort, 2)
	protos := []transport.Protocol{transport.ProtoDoH, transport.ProtoDoT}
	for i, handler := range []simnet.DNSHandler{w.GoogleResolver, w.CFResolver} {
		addrs[i] = netip.AddrPortFrom(w.Alloc.AllocV4("DoHFrontend"), protos[i].Port())
		fl.Add(protos[i], "fe", handler, addrs[i])
	}
	sc.Transport = fl.Client

	apex := findApex(w, func(d *providers.DomainState) bool {
		return d.Profile == providers.ProfileCFDefault && !d.ApexCNAME &&
			d.Intermittent == providers.IntermitNone && !d.AdoptDay.After(w.Clock.Now())
	})
	obs := sc.ScanDomain(apex)
	if obs.Err != "" || !obs.HasHTTPS() {
		t.Fatalf("DoH-transport scan failed: %+v", obs)
	}
	if len(obs.A) == 0 || len(obs.NS) == 0 || !obs.HasSOA {
		t.Errorf("follow-up data missing over DoH: %+v", obs)
	}

	// Re-scanning the same domain must be absorbed by the shared cache.
	before := fl.TotalStats().CacheHits
	if obs := sc.ScanDomain(apex); obs.Err != "" {
		t.Fatalf("second scan failed: %s", obs.Err)
	}
	if fl.TotalStats().CacheHits == before {
		t.Error("second scan produced no shared-cache hits")
	}

	// One frontend down: scans keep working through the survivor.
	w.Net.SetAddrDown(addrs[0].Addr(), true)
	apex2 := findApex(w, func(d *providers.DomainState) bool {
		return d.Profile == providers.ProfileCFCustom && !d.ApexCNAME &&
			d.Intermittent == providers.IntermitNone && !d.AdoptDay.After(w.Clock.Now())
	})
	if apex2 == "" {
		apex2 = apex
	}
	if obs := sc.ScanDomain(apex2); obs.Err != "" || !obs.HasHTTPS() {
		t.Errorf("scan with one frontend down failed: %+v", obs)
	}

	// Whole fleet dark: the scan records an error rather than panicking.
	w.Net.SetAddrDown(addrs[1].Addr(), true)
	if obs := sc.ScanDomain(apex2); obs.Err == "" {
		t.Error("no error recorded with the whole DoH fleet down")
	}
}

func TestECHScanAndProbe(t *testing.T) {
	w, sc := scanWorld(t)
	w.Clock.Set(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC))
	var echDomains []string
	for apex, d := range w.Domains {
		if d.ECH && !d.ApexCNAME && d.Intermittent == providers.IntermitNone &&
			!d.AdoptDay.After(w.Clock.Now()) {
			echDomains = append(echDomains, apex)
		}
		if len(echDomains) == 5 {
			break
		}
	}
	if len(echDomains) == 0 {
		t.Fatal("no eligible ECH domains")
	}
	obs := sc.ECHScan(w.Clock.Now(), echDomains)
	if len(obs) == 0 {
		t.Fatal("no ECH observations")
	}
	for _, o := range obs {
		if o.KeyHash == 0 || o.PublicName == "" {
			t.Errorf("incomplete observation: %+v", o)
		}
	}
}

// handAnswers is a Transport that answers each HTTPS question from a
// hand-built table of records.
type handAnswers map[string][]dnswire.RR

func (h handAnswers) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question, Answer: h[q.Question[0].Name]}, nil
}

// TestECHScanSkipsUnusableLists: a record whose ech parameter does not
// parse, or parses to no supported config, names no key, so the hourly scan
// stores nothing for it (Fig 4 would count an empty public name and a zero
// key hash as a config), while the daily summary still records that the
// record publishes ECH.
func TestECHScanSkipsUnusableLists(t *testing.T) {
	now := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := ech.NewKeyManager(rand.New(rand.NewSource(9)), "cover.example", time.Hour, time.Hour, now.Add(-3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	key, good := km.CurrentConfig(now).PublicKey, km.ConfigList(now) // config ID 3: the epoch
	withList := func(name string, list []byte) dnswire.RR {
		var ps svcb.Params
		ps.SetECH(list)
		return dnswire.RR{Name: name, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.SVCBData{Priority: 1, Target: ".", Params: ps}}
	}
	unknownOnly := []byte{0, 6, 0xfe, 0x0a, 0, 2, 0xaa, 0xbb} // one config, version fe0a
	trailing := append(bytes.Clone(good[2:]), 0xfe, 0x0d, 0, 1, 7)
	badAfterGood := append([]byte{byte(len(trailing) >> 8), byte(len(trailing))}, trailing...)
	tr := handAnswers{
		"good.test.":        {withList("good.test.", good)},
		"truncated.test.":   {withList("truncated.test.", good[:len(good)-1])},
		"unsupported.test.": {withList("unsupported.test.", unknownOnly)},
		"trailing.test.":    {withList("trailing.test.", badAfterGood)},
		"mixed.test.":       {withList("mixed.test.", unknownOnly), withList("mixed.test.", good)},
	}
	sc := &Scanner{Transport: tr, Concurrency: 2}
	domains := []string{"good.test.", "truncated.test.", "unsupported.test.", "trailing.test.", "mixed.test."}
	want := []dataset.ECHObservation{
		{Time: now, Domain: "good.test.", ConfigID: 3, KeyHash: dnswire.FNV1a(key), PublicName: "cover.example"},
		{Time: now, Domain: "mixed.test.", ConfigID: 3, KeyHash: dnswire.FNV1a(key), PublicName: "cover.example"},
	}
	if got := sc.ECHScan(now, domains); !reflect.DeepEqual(got, want) {
		t.Errorf("ECHScan stored %+v\nwant %+v", got, want)
	}
	for _, name := range domains[1:4] {
		sum, ok := summarizeHTTPS(tr[name][0])
		if !ok || !sum.HasECH || sum.ECHConfigID != 0 || sum.ECHKeyHash != 0 || sum.ECHPublicName != "" {
			t.Errorf("%s summarised as %+v, want HasECH and no key", name, sum)
		}
	}
}

func TestProbeMismatches(t *testing.T) {
	w, sc := scanWorld(t)
	// Pick a mismatch episode and set the clock inside it.
	var target *providers.DomainState
	for _, d := range w.Domains {
		if len(d.MismatchEpisodes) > 0 && d.Intermittent == providers.IntermitNone &&
			d.Profile == providers.ProfileCFDefault && !d.ApexCNAME {
			target = d
			break
		}
	}
	if target == nil {
		t.Fatal("no mismatch domain")
	}
	ep := target.MismatchEpisodes[0]
	mid := ep.From.Add(ep.To.Sub(ep.From) / 2)
	w.Clock.Set(mid)
	snap := sc.ScanList(mid, "apex", []string{trimDot(target.Apex)})
	probes := sc.ProbeMismatches(mid, snap, w)
	if len(probes) != 1 {
		t.Fatalf("probes = %d, want 1", len(probes))
	}
	p := probes[0]
	if !p.Mismatch {
		t.Error("mismatch not flagged")
	}
	if p.HintOK != target.HintReachable || p.AOK != target.AReachable {
		t.Errorf("reachability: got hint=%v a=%v, want %v/%v",
			p.HintOK, p.AOK, target.HintReachable, target.AReachable)
	}

	// Hints and A records compare as sets: two records that each carry
	// the one A address agree with it, a hint the A records lack does not.
	x, y := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	rec := dataset.HTTPSRecord{Priority: 1, Target: ".", V4Hints: []netip.Addr{x}}
	hand := &dataset.Snapshot{Obs: map[string]*dataset.Observation{
		"twice.test.": {Name: "twice.test.", HTTPS: []dataset.HTTPSRecord{rec, rec}, A: []netip.Addr{x}},
		"stale.test.": {Name: "stale.test.", HTTPS: []dataset.HTTPSRecord{rec}, A: []netip.Addr{y}},
	}}
	if got := sc.ProbeMismatches(mid, hand, w); len(got) != 1 || got[0].Domain != "stale.test." {
		t.Errorf("hand-built snapshot probed %+v, want stale.test. alone", got)
	}
}

func trimDot(s string) string {
	if len(s) > 0 && s[len(s)-1] == '.' {
		return s[:len(s)-1]
	}
	return s
}

func TestSummarizeHTTPSNonSVCB(t *testing.T) {
	rr := dnswire.RR{Name: "a.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
		Data: &dnswire.AData{}}
	if _, ok := summarizeHTTPS(rr); ok {
		t.Error("non-SVCB record summarised")
	}
}

// TestScannerForkIsolation checks a forked scanner shares configuration but
// not mutable state: separate query-ID streams, separate transports.
func TestScannerForkIsolation(t *testing.T) {
	w, sc := scanWorld(t)
	sc.Concurrency = 3
	dayClock := simnet.NewClock(w.Clock.Now().Add(24 * time.Hour))
	view := w.Net.WithClock(dayClock)
	f := sc.Fork(view, nil)
	if f.Net != view || f.Primary != sc.Primary || f.Backup != sc.Backup ||
		f.Whois != sc.Whois || f.Concurrency != 3 {
		t.Error("fork did not copy configuration")
	}
	if f.Transport != nil {
		t.Error("fork inherited a transport it was not given")
	}
	// Independent ID streams: both start at 1.
	if id := sc.nextID(); id != 1 {
		t.Errorf("parent first id = %d", id)
	}
	if id := f.nextID(); id != 1 {
		t.Errorf("fork first id = %d", id)
	}
}

// TestECHScanDeterministicOrder verifies the parallel ECH scan emits
// observations in input-domain order regardless of worker scheduling.
func TestECHScanDeterministicOrder(t *testing.T) {
	w, sc := scanWorld(t)
	w.Clock.Set(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC))
	var echDomains []string
	for apex, d := range w.Domains {
		if d.ECH && !d.ApexCNAME && d.Intermittent == providers.IntermitNone &&
			!d.AdoptDay.After(w.Clock.Now()) {
			echDomains = append(echDomains, apex)
		}
	}
	if len(echDomains) < 4 {
		t.Skip("not enough ECH domains at this size/seed")
	}
	sort.Strings(echDomains)
	first := sc.ECHScan(w.Clock.Now(), echDomains)
	for run := 0; run < 3; run++ {
		again := sc.ECHScan(w.Clock.Now(), echDomains)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d observations, want %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("run %d: observation %d differs: %+v vs %+v", run, i, again[i], first[i])
			}
		}
	}
}

// TestScanNameServersDeterministic verifies repeated parallel NS scans of
// the same snapshot produce identical snapshots.
func TestScanNameServersDeterministic(t *testing.T) {
	w, sc := scanWorld(t)
	list := w.Tranco.ListFor(w.Clock.Now())[:200]
	snap := sc.ScanList(w.Clock.Now(), "apex", list)
	first := sc.ScanNameServers(w.Clock.Now(), snap)
	if len(first.Servers) == 0 {
		t.Fatal("no NS observations")
	}
	again := sc.ScanNameServers(w.Clock.Now(), snap)
	if len(again.Servers) != len(first.Servers) {
		t.Fatalf("server counts differ: %d vs %d", len(again.Servers), len(first.Servers))
	}
	for host, nso := range first.Servers {
		b, ok := again.Servers[host]
		if !ok || b.Org != nso.Org || len(b.Addrs) != len(nso.Addrs) {
			t.Errorf("host %s differs across runs: %+v vs %+v", host, nso, b)
		}
	}
}

// TestScanDomainNamesErrorsAsListed: the scan canonicalises a list name
// once and queries with that, but Observation.Err is stored, so a SERVFAIL
// must keep naming the domain the way the list spelt it.
func TestScanDomainNamesErrorsAsListed(t *testing.T) {
	w, sc := scanWorld(t)
	var d *providers.DomainState
	for _, c := range w.Domains {
		if c.Intermittent == providers.IntermitNoNS && (d == nil || c.Apex < d.Apex) {
			d = c
		}
	}
	if d == nil {
		t.Skip("world has no domain that loses its NS records")
	}
	listed := trimDot(d.Apex)
	for day := providers.StudyStart; day.Before(providers.StudyEnd); day = day.Add(24 * time.Hour) {
		if len(d.ProvidersAt(day)) > 0 {
			continue
		}
		w.Clock.Set(day)
		obs := sc.ScanDomain(listed)
		if want := "scanner: SERVFAIL from both resolvers for " + listed + "/HTTPS"; obs.Err != want || obs.Name != d.Apex {
			t.Errorf("scan of %q: name %q, error %q; want name %q, error %q", listed, obs.Name, obs.Err, d.Apex, want)
		}
		return
	}
	t.Skip("no NS-less day inside the study period")
}

// TestSpellMatchesScanList: a list name's canonical www spelling gives the
// question name and the shown spelling ScanList would build, for both
// kinds; a spelling that is not exactly the name's, or a name CanonicalName
// would change beyond the dot, is spelt the way ScanList spells it.
func TestSpellMatchesScanList(t *testing.T) {
	for _, c := range []struct{ kind, name, www, canon, shown string }{
		{"apex", "site000001.com", "www.site000001.com.", "site000001.com.", "site000001.com"},
		{"www", "site000001.com", "www.site000001.com.", "www.site000001.com.", "www.site000001.com"},
		{"apex", "site000001.com", "", "site000001.com.", "site000001.com"},
		{"www", "site000001.com", "", "www.site000001.com.", "www.site000001.com"},
		{"www", "site000001.com", "www.site000002.com.", "www.site000001.com.", "www.site000001.com"},
		{"apex", "site000001.com", "www.site000001.co.", "site000001.com.", "site000001.com"},
		{"www", "Site000001.com", "www.Site000001.com.", "www.site000001.com.", "www.Site000001.com"},
		{"apex", "site000001.com.", "www.site000001.com..", "site000001.com.", "site000001.com."},
		{"apex", "", "www..", ".", ""},
	} {
		canon, shown := spell(c.kind, c.name, c.www)
		if canon != c.canon || shown != c.shown {
			t.Errorf("spell(%q, %q, %q) = %q, %q; want %q, %q", c.kind, c.name, c.www, canon, shown, c.canon, c.shown)
		}
	}
}

// TestConcurrentCanonScansMatchSerial: four workers share one recursor, its
// answer cache and the slab its entries come from, and scan with the list's
// canonical spellings; each kind's snapshot must equal one worker's
// ScanList, which spells every name itself. A name whose NS records are gone
// that day is scanned too, so a stored error text is compared.
func TestConcurrentCanonScansMatchSerial(t *testing.T) {
	w, base := scanWorld(t)
	var gone *providers.DomainState
	for _, c := range w.Domains {
		if c.Intermittent == providers.IntermitNoNS && len(c.NoNSEpisodes) > 0 && (gone == nil || c.Apex < gone.Apex) {
			gone = c
		}
	}
	if gone == nil {
		t.Fatal("world has no domain that loses its NS records")
	}
	at := gone.NoNSEpisodes[0].From.Add(time.Hour)
	list, www := w.Tranco.CanonListFor(at)
	listed := trimDot(gone.Apex)
	list, www = append(list[:400:400], listed), append(www[:400:400], "www."+gone.Apex)
	scan := func(workers int, kind string, canon []string) *dataset.Snapshot {
		net := w.Net.WithClock(simnet.NewClock(at))
		net.OverrideDNS(base.Primary, w.GoogleResolver.Fork(net))
		net.OverrideDNS(base.Backup, w.CFResolver.Fork(net))
		sc := base.Fork(net, nil)
		sc.Concurrency = workers
		return sc.ScanList(at, kind, list, canon...)
	}
	for _, kind := range []string{"apex", "www"} {
		want, got := scan(1, kind, nil), scan(4, kind, www)
		key := gone.Apex
		if kind == "www" {
			key = "www." + key
		}
		if o := want.Obs[key]; o == nil || o.Err == "" {
			t.Fatalf("%s scan of %s on a day without NS records: %+v", kind, key, o)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: four workers over canonical spellings store what one worker spelling each name does not", kind)
		}
	}
}

// answerCounter is a Transport over the fleet client that counts answered
// exchanges and the answers handed back, forwarding both.
type answerCounter struct {
	c                 *transport.Client
	answers, recycled atomic.Int64
}

func (a *answerCounter) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	m, err := a.c.Exchange(q)
	if err == nil {
		a.answers.Add(1)
	}
	return m, err
}

func (a *answerCounter) Recycle(m *dnswire.Message) {
	a.recycled.Add(1)
	a.c.Recycle(m)
}

// hidesRecycle narrows a transport to Exchange, so the scanner's type
// assertion finds no Recycle method — a transport that never offered one.
type hidesRecycle struct{ Transport }

var _ recycler = (*transport.Client)(nil)

// copiedReplies wraps a handler so that every answer leaves it as a value
// copy, which Release leaves alone: the unreleased path, for comparison.
type copiedReplies struct{ h simnet.DNSHandler }

func (c copiedReplies) HandleDNS(q *dnswire.Message) *dnswire.Message {
	m := *c.h.HandleDNS(q)
	return &m
}

// TestRecycledAnswersLeaveScansUnchanged scans the same list three times,
// each through its own racing doh=2,dot=1,doq=1 fleet over forked recursors
// with eight workers: with the bare client (whose answers the scanner hands
// back for the next decode to overwrite), with a forwarding counter, and
// with a transport that hides Recycle (every answer left to the collector).
// A value read out of an answer after it went home — or a message decoded
// into by two workers at once, which the race detector sees — would move
// one of the three results; they must be deep-equal. The counter proves the
// scanner hands back exactly the answers it was given. Two more scans ask
// forked recursors directly: bare, so that every reply and every scan's own
// query is released into the pool the other workers build theirs from, and
// behind copiedReplies, where nothing the scanner reads is ever released.
func TestRecycledAnswersLeaveScansUnchanged(t *testing.T) {
	w, base := scanWorld(t)
	at := time.Date(2023, 7, 21, 12, 0, 0, 0, time.UTC)
	list := w.Tranco.ListFor(at)[:400]
	var echDomains []string
	for apex, d := range w.Domains {
		if d.ECH && !d.ApexCNAME && !d.AdoptDay.After(at) {
			echDomains = append(echDomains, apex)
		}
	}
	sort.Strings(echDomains)

	type result struct {
		snap *dataset.Snapshot
		ns   *dataset.NSSnapshot
		ech  []dataset.ECHObservation
	}
	run := func(sc *Scanner) (r result) {
		sc.Concurrency = 8
		r.snap = sc.ScanList(at, "apex", list)
		r.ns = sc.ScanNameServers(at, r.snap)
		r.ech = sc.ECHScan(at, echDomains)
		return r
	}
	direct := func(wrap func(simnet.DNSHandler) simnet.DNSHandler) result {
		net := w.Net.WithClock(simnet.NewClock(at))
		net.OverrideDNS(base.Primary, wrap(w.GoogleResolver.Fork(net)))
		net.OverrideDNS(base.Backup, wrap(w.CFResolver.Fork(net)))
		return run(base.Fork(net, nil))
	}
	scan := func(wrap func(*transport.Client) Transport) result {
		clock := simnet.NewClock(at)
		net := w.Net.WithClock(clock)
		fl := transport.NewFleet(net, clock, transport.FleetConfig{
			Seed: 5, Override: true,
			Strategy: transport.StrategyConfig{Kind: transport.StrategyRace},
			Latency:  transport.SyntheticLatency(8*time.Millisecond, 24*time.Millisecond),
		})
		recursors := []simnet.DNSHandler{w.GoogleResolver.Fork(net), w.CFResolver.Fork(net)}
		for i, proto := range (transport.Mix{DoH: 2, DoT: 1, DoQ: 1}).Assign(4) {
			ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}), proto.Port())
			fl.Add(proto, proto.String(), recursors[i%2], ap)
		}
		r := run(base.Fork(net, wrap(fl.Client)))
		if st := fl.StrategyStats(); st.Races == 0 {
			t.Errorf("the fleet never raced: %+v", st)
		}
		return r
	}

	bare := scan(func(c *transport.Client) Transport { return c })
	if len(bare.snap.Obs) == 0 || len(bare.ns.Servers) == 0 || len(bare.ech) == 0 {
		t.Fatalf("scan saw too little to compare: %d observations, %d name servers, %d ECH observations",
			len(bare.snap.Obs), len(bare.ns.Servers), len(bare.ech))
	}
	var counted answerCounter
	forwarded := scan(func(c *transport.Client) Transport { counted.c = c; return &counted })
	if n := counted.answers.Load(); n == 0 || counted.recycled.Load() != n {
		t.Errorf("%d answers handed back of %d given", counted.recycled.Load(), n)
	}
	if !reflect.DeepEqual(bare, forwarded) {
		t.Error("scan through a forwarding wrapper differs from the bare client's")
	}
	hidden := scan(func(c *transport.Client) Transport { return hidesRecycle{c} })
	if _, ok := Transport(hidesRecycle{}).(recycler); ok {
		t.Fatal("the hiding wrapper does not hide Recycle")
	}
	if !reflect.DeepEqual(bare, hidden) {
		t.Error("scan with recycled answers differs from the scan that recycles nothing")
	}

	released := direct(func(h simnet.DNSHandler) simnet.DNSHandler { return h })
	if len(released.snap.Obs) == 0 || len(released.ns.Servers) == 0 || len(released.ech) == 0 {
		t.Fatalf("direct scan saw too little to compare: %d observations, %d name servers, %d ECH observations",
			len(released.snap.Obs), len(released.ns.Servers), len(released.ech))
	}
	kept := direct(func(h simnet.DNSHandler) simnet.DNSHandler { return copiedReplies{h} })
	if !reflect.DeepEqual(released, kept) {
		t.Error("direct scan with released replies differs from the scan that releases nothing")
	}
}
