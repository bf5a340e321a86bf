package providers

import (
	"testing"
	"time"
)

func TestScaleCount(t *testing.T) {
	cases := []struct{ count, size, want int }{
		{185, 1_000_000, 185}, // identity at full scale
		{185, 100_000, 18},
		{185, 10_000, 1},
		{5, 20_000, 1}, // floor at 1
		{0, 20_000, 0},
	}
	for _, c := range cases {
		if got := scaleCount(c.count, c.size); got != c.want {
			t.Errorf("scaleCount(%d, %d) = %d, want %d", c.count, c.size, got, c.want)
		}
	}
}

func TestDefaultCalibrationSanity(t *testing.T) {
	probs := map[string]float64{
		"coreAdoptRate":        coreAdoptRate,
		"tailAdoptAtStart":     tailAdoptAtStart,
		"tailAdoptAtEnd":       tailAdoptAtEnd,
		"wwwGivenApex":         wwwGivenApex,
		"cloudflareShare":      cloudflareShare,
		"cfDefaultShare":       cfDefaultShare,
		"echShareOfAdopters":   echShareOfAdopters,
		"signedShareCF":        signedShareCF,
		"cfInsecureShare":      cfInsecureShare,
		"signedShareNoHTTPS":   signedShareNoHTTPS,
		"noHTTPSInsecureShare": noHTTPSInsecureShare,
		"hintShareV4":          hintShareV4,
		"nonCFH2Share":         nonCFH2Share,
		"goDaddyAliasShare":    goDaddyAliasShare,
	}
	for name, p := range probs {
		if p <= 0 || p > 1 {
			t.Errorf("%s = %f out of (0,1]", name, p)
		}
	}
	if tailAdoptAtEnd <= tailAdoptAtStart {
		t.Error("tail adoption must rise (Fig 2a trend)")
	}
	if echRotationPeriod < time.Hour || echRotationPeriod > 2*time.Hour {
		t.Errorf("rotation period %v outside the paper's 1-2h band", echRotationPeriod)
	}
	if nonCFWeights[0].name != "eName" {
		t.Error("Table 3's top provider must be eName")
	}
	if !ECHDisableDate.After(StudyStart) || !ECHDisableDate.Before(StudyEnd) {
		t.Error("ECH disable date outside study period")
	}
}

func TestMultiProviderPhases(t *testing.T) {
	clock := time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)
	p1 := &Provider{Name: "CF", SupportsHTTPS: true}
	p2 := &Provider{Name: "Legacy"}
	d := &DomainState{
		Apex:         "x.com.",
		Providers:    []*Provider{p1, p2},
		Intermittent: IntermitMultiProvider,
	}
	seen := map[int]int{} // phase → provider count
	firsts := map[string]bool{}
	for i := 0; i < 6; i++ {
		day := clock.AddDate(0, 0, i)
		ps := d.ProvidersAt(day)
		if len(ps) == 0 {
			t.Fatal("no providers")
		}
		seen[len(ps)]++
		firsts[ps[0].Name] = true
	}
	// All three arrangements appear across six consecutive days.
	if len(seen) < 2 || !firsts["CF"] || !firsts["Legacy"] {
		t.Errorf("phases not cycling: counts=%v firsts=%v", seen, firsts)
	}
}

func TestSwitchAwaySchedule(t *testing.T) {
	p1 := &Provider{Name: "CF", SupportsHTTPS: true}
	p2 := &Provider{Name: "Reg"}
	d := &DomainState{
		Apex:      "x.com.",
		Providers: []*Provider{p1, p2},
		SwitchDay: time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC),
	}
	before := d.ProvidersAt(d.SwitchDay.Add(-time.Hour))
	after := d.ProvidersAt(d.SwitchDay.Add(time.Hour))
	if len(before) != 1 || before[0] != p1 {
		t.Errorf("before switch = %v", before)
	}
	if len(after) != 1 || after[0] != p2 {
		t.Errorf("after switch = %v", after)
	}
}

func TestNoNSEpisode(t *testing.T) {
	p1 := &Provider{Name: "CF", SupportsHTTPS: true}
	ep := interval{
		From: time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC),
		To:   time.Date(2023, 10, 5, 0, 0, 0, 0, time.UTC),
	}
	d := &DomainState{Apex: "x.com.", Providers: []*Provider{p1}, NoNSEpisodes: []interval{ep}}
	if got := d.ProvidersAt(ep.From.Add(time.Hour)); got != nil {
		t.Errorf("providers during NS loss = %v", got)
	}
	if got := d.ProvidersAt(ep.To.Add(time.Hour)); len(got) != 1 {
		t.Errorf("providers after NS loss = %v", got)
	}
}

func TestHTTPSPublishedGates(t *testing.T) {
	now := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	p := &Provider{Name: "P", SupportsHTTPS: true, HTTPSStartDay: now.AddDate(0, 0, -30)}
	d := &DomainState{Apex: "x.com.", Profile: ProfileCFDefault,
		AdoptDay: now.AddDate(0, 0, -10), Providers: []*Provider{p}}
	if !d.HTTPSPublished(now, p) {
		t.Error("should publish")
	}
	if d.HTTPSPublished(d.AdoptDay.AddDate(0, 0, -1), p) {
		t.Error("published before adoption")
	}
	// Provider capability gates.
	noSupport := &Provider{Name: "L"}
	if d.HTTPSPublished(now, noSupport) {
		t.Error("published via non-supporting provider")
	}
	late := &Provider{Name: "Late", SupportsHTTPS: true, HTTPSStartDay: now.AddDate(0, 0, 5)}
	if d.HTTPSPublished(now, late) {
		t.Error("published before provider support began")
	}
	// Proxied-toggle off episode.
	d.Intermittent = IntermitProxiedToggle
	d.OffEpisodes = []interval{{From: now.AddDate(0, 0, -1), To: now.AddDate(0, 0, 1)}}
	if d.HTTPSPublished(now, p) {
		t.Error("published during off episode")
	}
}
