package providers

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/svcb"
)

// buildTestWorld creates a small world shared by the tests in this file.
func buildTestWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := BuildWorld(WorldConfig{Size: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// activeFrom returns the first time the domain's HTTPS records are served
// (both the domain must have adopted and its provider must support HTTPS).
func activeFrom(d *DomainState) time.Time {
	t := d.AdoptDay
	if len(d.Providers) > 0 && d.Providers[0].HTTPSStartDay.After(t) {
		t = d.Providers[0].HTTPSStartDay
	}
	return t
}

// findDomain locates a domain matching pred.
func findDomain(w *World, pred func(*DomainState) bool) *DomainState {
	for _, apex := range sortedApexes(w.Domains) {
		if d := w.Domains[apex]; pred(d) {
			return d
		}
	}
	return nil
}

func resolveHTTPS(t *testing.T, w *World, name string) []dnswire.RR {
	t.Helper()
	res, err := w.GoogleResolver.Resolve(name, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatalf("resolving %s/HTTPS: %v", name, err)
	}
	var out []dnswire.RR
	for _, rr := range res.Answer {
		if rr.Type == dnswire.TypeHTTPS {
			out = append(out, rr)
		}
	}
	return out
}

func TestWorldResolvesCFDefaultDomain(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && d.Intermittent == IntermitNone &&
			len(d.MismatchEpisodes) == 0 && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no CF-default domain generated")
	}
	rrs := resolveHTTPS(t, w, d.Apex)
	if len(rrs) != 1 {
		t.Fatalf("HTTPS records = %d", len(rrs))
	}
	data := rrs[0].Data.(*dnswire.SVCBData)
	if data.Priority != 1 || data.Target != "." {
		t.Errorf("CF default shape wrong: %v", data)
	}
	alpn, ok := data.Params.ALPN()
	if !ok || len(alpn) < 2 {
		t.Errorf("CF default alpn = %v", alpn)
	}
	if _, ok := data.Params.IPv4Hints(); !ok {
		t.Error("CF default missing ipv4hint")
	}
	if _, ok := data.Params.IPv6Hints(); !ok {
		t.Error("CF default missing ipv6hint")
	}
}

func TestWorldAdoptionRateNearCalibration(t *testing.T) {
	w := buildTestWorld(t, 2000)
	list := w.Tranco.ListFor(StudyStart)
	adopters := 0
	for _, name := range list {
		d, ok := w.Domain(name)
		if !ok {
			t.Fatalf("listed domain %s missing from world", name)
		}
		if d.Profile != ProfileNone && !StudyStart.Before(d.AdoptDay) {
			adopters++
		}
	}
	rate := float64(adopters) / float64(len(list))
	if rate < 0.14 || rate > 0.30 {
		t.Errorf("day-one adoption rate = %.3f, want ≈0.20", rate)
	}
}

func TestWorldCloudflareDominance(t *testing.T) {
	w := buildTestWorld(t, 2000)
	cf, total := 0, 0
	for _, d := range w.Domains {
		if d.Profile == ProfileNone {
			continue
		}
		total++
		if d.Providers[0].IsCloudflare {
			cf++
		}
	}
	// The scale floor (MinNonCFAdopters) inflates the non-CF share at
	// small sizes; the paper's 99.89% emerges at ≳90k domains.
	share := float64(cf) / float64(total)
	if share < 0.85 {
		t.Errorf("Cloudflare share = %.4f, want dominant (≈0.999 at full scale)", share)
	}
}

func TestWorldECHTimeline(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && d.ECH && d.Intermittent == IntermitNone && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no ECH domain generated")
	}
	// Before the shutdown: ech param present and parses.
	w.Clock.Set(time.Date(2023, 7, 1, 12, 0, 0, 0, time.UTC))
	rrs := resolveHTTPS(t, w, d.Apex)
	if len(rrs) == 0 {
		t.Fatal("no HTTPS record")
	}
	echBytes, ok := rrs[0].Data.(*dnswire.SVCBData).Params.ECH()
	if !ok {
		t.Fatal("ech param missing before shutdown")
	}
	configs, err := ech.UnmarshalList(echBytes)
	if err != nil {
		t.Fatalf("ech config list malformed: %v", err)
	}
	sel, err := ech.SelectConfig(configs)
	if err != nil {
		t.Fatal(err)
	}
	if sel.PublicName != "cloudflare-ech.com" {
		t.Errorf("public name = %q", sel.PublicName)
	}
	// After the shutdown (October 5th, 2023): gone.
	w.Clock.Set(time.Date(2023, 10, 6, 12, 0, 0, 0, time.UTC))
	w.GoogleResolver.FlushCache()
	rrs = resolveHTTPS(t, w, d.Apex)
	if len(rrs) == 0 {
		t.Fatal("HTTPS record gone after ECH shutdown")
	}
	if _, ok := rrs[0].Data.(*dnswire.SVCBData).Params.ECH(); ok {
		t.Error("ech param still present after shutdown")
	}
}

func TestWorldECHKeyRotationVisibleInDNS(t *testing.T) {
	w := buildTestWorld(t, 1000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.ECH && d.Intermittent == IntermitNone && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no ECH domain")
	}
	at := func(ts time.Time) []byte {
		w.Clock.Set(ts)
		w.GoogleResolver.FlushCache()
		rrs := resolveHTTPS(t, w, d.Apex)
		if len(rrs) == 0 {
			t.Fatal("no HTTPS record")
		}
		v, _ := rrs[0].Data.(*dnswire.SVCBData).Params.ECH()
		return v
	}
	t0 := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	a := at(t0)
	b := at(t0.Add(10 * time.Minute))
	c := at(t0.Add(3 * time.Hour))
	if !bytes.Equal(a, b) {
		t.Error("ECH config changed within rotation period")
	}
	if bytes.Equal(a, c) {
		t.Error("ECH config unchanged after rotation period")
	}
}

func TestWorldDNSSECChain(t *testing.T) {
	w := buildTestWorld(t, 2000)
	secure := findDomain(w, func(d *DomainState) bool {
		return d.Profile != ProfileNone && d.Signed && d.DSUploaded &&
			d.Intermittent == IntermitNone && !d.ApexCNAME
	})
	insecure := findDomain(w, func(d *DomainState) bool {
		return d.Profile != ProfileNone && d.Signed && !d.DSUploaded &&
			d.Intermittent == IntermitNone && !d.ApexCNAME
	})
	if secure == nil || insecure == nil {
		t.Fatal("signed domains not generated")
	}
	res, err := w.GoogleResolver.Resolve(secure.Apex, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthenticatedData {
		t.Errorf("AD bit not set for %s (signed, DS uploaded)", secure.Apex)
	}
	if len(res.Sigs) == 0 {
		t.Error("RRSIG missing for signed domain")
	}
	res, err = w.GoogleResolver.Resolve(insecure.Apex, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthenticatedData {
		t.Errorf("AD bit set for %s (missing DS)", insecure.Apex)
	}
	if len(res.Sigs) == 0 {
		t.Error("RRSIG should be served even when DS is missing")
	}
}

func TestWorldIntermittentProxiedToggle(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Intermittent == IntermitProxiedToggle && len(d.OffEpisodes) > 0 && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no proxied-toggle domain")
	}
	ep := d.OffEpisodes[0]
	w.Clock.Set(ep.From.Add(12 * time.Hour))
	w.GoogleResolver.FlushCache()
	if rrs := resolveHTTPS(t, w, d.Apex); len(rrs) != 0 {
		t.Error("HTTPS served during off episode")
	}
	w.Clock.Set(ep.To.Add(12 * time.Hour))
	w.GoogleResolver.FlushCache()
	if rrs := resolveHTTPS(t, w, d.Apex); len(rrs) == 0 {
		t.Error("HTTPS missing after off episode")
	}
}

func TestWorldSwitchAwayLosesHTTPS(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Intermittent == IntermitSwitchAway && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no switch-away domain")
	}
	w.Clock.Set(d.SwitchDay.Add(-24 * time.Hour))
	w.GoogleResolver.FlushCache()
	if rrs := resolveHTTPS(t, w, d.Apex); len(rrs) == 0 {
		t.Error("HTTPS missing before switch")
	}
	w.Clock.Set(d.SwitchDay.Add(24 * time.Hour))
	w.GoogleResolver.FlushCache()
	if rrs := resolveHTTPS(t, w, d.Apex); len(rrs) != 0 {
		t.Error("HTTPS still served after switching to non-supporting provider")
	}
	// NS records now show the new provider.
	res, err := w.GoogleResolver.Resolve(d.Apex, dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Answer {
		if ns, ok := rr.Data.(*dnswire.NSData); ok {
			if dnswire.IsSubdomain(ns.Host, w.Cloudflare.InfraDomain) {
				t.Error("NS still points at Cloudflare after switch")
			}
		}
	}
}

func TestWorldMismatchSchedule(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return len(d.MismatchEpisodes) > 0 && d.Intermittent == IntermitNone &&
			d.Profile == ProfileCFDefault && !d.ApexCNAME &&
			d.MismatchEpisodes[0].To.Before(StudyEnd)
	})
	if d == nil {
		t.Fatal("no mismatch domain")
	}
	ep := d.MismatchEpisodes[0]
	mid := ep.From.Add(ep.To.Sub(ep.From) / 2)
	if d.CurrentV4(mid) == d.HintV4Addr() {
		t.Error("addresses match during mismatch episode")
	}
	after := ep.To.Add(24 * time.Hour)
	if d.InMismatch(after) {
		// Could be a second episode; only check when clear of all.
		if !inAny(d.MismatchEpisodes, after) {
			t.Error("InMismatch wrong")
		}
	} else if d.CurrentV4(after) != d.HintV4Addr() {
		t.Error("addresses differ outside mismatch episode")
	}
	// Connectivity probe honours reachability flags during the episode.
	w.Clock.Set(mid)
	errHint := w.ProbeTLS(d.Apex, d.HintV4Addr())
	errA := w.ProbeTLS(d.Apex, d.CurrentV4(mid))
	if d.HintReachable && errHint != nil {
		t.Errorf("hint address should be reachable: %v", errHint)
	}
	if !d.HintReachable && errHint == nil {
		t.Error("hint address should be unreachable")
	}
	if d.AReachable && errA != nil {
		t.Errorf("A address should be reachable: %v", errA)
	}
	if !d.AReachable && errA == nil {
		t.Error("A address should be unreachable")
	}
}

func TestWorldGoDaddyAliasShape(t *testing.T) {
	w := buildTestWorld(t, 4000)
	d := findDomain(w, func(d *DomainState) bool { return d.Profile == ProfileGoDaddyAlias })
	if d == nil {
		t.Skip("no GoDaddy alias domain at this scale/seed")
	}
	w.Clock.Set(activeFrom(d).Add(24 * time.Hour))
	rrs := resolveHTTPS(t, w, d.Apex)
	if len(rrs) == 0 {
		t.Fatal("no HTTPS record")
	}
	data := rrs[0].Data.(*dnswire.SVCBData)
	if !data.AliasMode() || data.Target == "." {
		t.Errorf("GoDaddy record not AliasMode-to-endpoint: %v", data)
	}
}

func TestWorldWWWRecords(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && d.HasWWW && d.WWWHTTPS && !d.WWWCNAME &&
			d.Intermittent == IntermitNone && !d.ApexCNAME
	})
	if d == nil {
		t.Fatal("no www-enabled domain")
	}
	rrs := resolveHTTPS(t, w, d.WWWName())
	if len(rrs) != 1 {
		t.Fatalf("www HTTPS records = %d", len(rrs))
	}
	// A record resolution for www too.
	res, err := w.GoogleResolver.Resolve(d.WWWName(), dnswire.TypeA)
	if err != nil || len(res.Answer) == 0 {
		t.Errorf("www A resolution failed: %v", err)
	}
}

func TestWorldApexCNAMEChase(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool { return d.ApexCNAME })
	if d == nil {
		t.Fatal("no apex-CNAME domain")
	}
	res, err := w.GoogleResolver.Resolve(d.Apex, dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	var hasCNAME bool
	for _, rr := range res.Answer {
		if rr.Type == dnswire.TypeCNAME {
			hasCNAME = true
		}
	}
	if !hasCNAME {
		t.Error("apex CNAME not returned")
	}
}

func TestWorldWhoisAttribution(t *testing.T) {
	w := buildTestWorld(t, 1000)
	for _, p := range w.Providers[:3] {
		org := w.Whois.AttributeNameServer(p.NSAddrs[0])
		if org != p.Org {
			t.Errorf("attribution for %s NS = %q, want %q", p.Name, org, p.Org)
		}
	}
}

func TestWorldPriorityListPathology(t *testing.T) {
	w := buildTestWorld(t, 2000)
	d := findDomain(w, func(d *DomainState) bool { return d.Profile == ProfilePriorityList })
	if d == nil {
		t.Skip("no priority-list domain at this scale/seed")
	}
	w.Clock.Set(activeFrom(d).Add(24 * time.Hour))
	rrs := resolveHTTPS(t, w, d.Apex)
	if len(rrs) != 12 {
		t.Fatalf("priority-list records = %d, want 12", len(rrs))
	}
	for _, rr := range rrs {
		data := rr.Data.(*dnswire.SVCBData)
		if _, ok := data.Params.Get(svcb.KeyPort); !ok {
			t.Error("priority-list record missing port")
		}
	}
}

// TestWorldNamesSurviveWireDecode sweeps every domain the world
// generates through the wire codec: dnswire's name decode refuses label
// bytes a dotted name cannot carry, and nothing the generator emits —
// apexes, www names, NS hosts, SVCB targets, CNAME targets, SOA and RRSIG
// names in signed answers — may fall in that class.
func TestWorldNamesSurviveWireDecode(t *testing.T) {
	w := buildTestWorld(t, 600)
	w.Clock.Set(time.Date(2024, 2, 1, 12, 0, 0, 0, time.UTC))
	var id uint16
	for _, apex := range sortedApexes(w.Domains) {
		for _, name := range []string{apex, "www." + apex} {
			for _, qt := range []dnswire.Type{dnswire.TypeHTTPS, dnswire.TypeA, dnswire.TypeNS} {
				id++
				resp := w.GoogleResolver.HandleDNS(dnswire.NewQuery(id, name, qt, true))
				wire, err := resp.Pack()
				if err != nil {
					t.Fatalf("%s/%s: pack: %v", name, qt, err)
				}
				back, err := dnswire.Unpack(wire)
				if err != nil {
					t.Fatalf("%s/%s: the world's own answer does not decode: %v", name, qt, err)
				}
				if back.String() != resp.String() {
					t.Fatalf("%s/%s: answer drifted through the codec:\n%s\n→\n%s", name, qt, resp, back)
				}
			}
		}
	}
}
