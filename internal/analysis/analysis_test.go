package analysis

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/providers"
)

// The tests in this file share one campaign: a scaled-down version of the
// paper's full study (2k domains, weekly sampling) plus the hourly ECH
// experiment and the validation census. Assertions check the *shape* of
// each result against the paper's findings with generous bands.

var (
	once     sync.Once
	campaign *core.Campaign
	buildErr error
)

func sharedCampaign(t *testing.T) *core.Campaign {
	t.Helper()
	once.Do(func() {
		campaign, buildErr = core.NewCampaign(core.CampaignConfig{
			Size: 2000, Seed: 7, StepDays: 7,
		})
		if buildErr != nil {
			return
		}
		if buildErr = campaign.RunDaily(); buildErr != nil {
			return
		}
		campaign.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 2)
		campaign.RunValidationCensus(time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC))
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return campaign
}

func store(t *testing.T) *dataset.Store { return sharedCampaign(t).Store }

func TestFig2Adoption(t *testing.T) {
	res := Adoption(store(t))
	if len(res.DynamicApex.Points) < 10 {
		t.Fatalf("too few samples: %d", len(res.DynamicApex.Points))
	}
	first, last, delta := trendDelta(res.DynamicApex)
	if first < 12 || first > 30 {
		t.Errorf("dynamic apex adoption at start = %.1f%%, paper ≈20%%", first)
	}
	if last < 18 || last > 36 {
		t.Errorf("dynamic apex adoption at end = %.1f%%, paper ≈27%%", last)
	}
	if delta <= 0 {
		t.Errorf("dynamic apex trend not increasing: Δ=%.2f", delta)
	}
	// Overlapping set: broadly stable (no strong rise like the dynamic).
	_, _, ovDelta := trendDelta(res.OverlapApex)
	if ovDelta > delta {
		t.Errorf("overlapping trend (Δ=%.2f) rose faster than dynamic (Δ=%.2f)", ovDelta, delta)
	}
	// www sits below apex.
	aFirst, _, _ := trendDelta(res.DynamicApex)
	wFirst, _, _ := trendDelta(res.DynamicWWW)
	if wFirst > aFirst {
		t.Errorf("www adoption (%.1f%%) above apex (%.1f%%)", wFirst, aFirst)
	}
	if res.Phase1Size == 0 || res.Phase2Size == 0 {
		t.Error("empty overlapping sets")
	}
}

func TestTable2NSCategories(t *testing.T) {
	res := NSCategories(store(t), nil)
	if res.Days == 0 {
		t.Fatal("no NS days analysed")
	}
	// The MinNonCFAdopters scale floor inflates the non-CF share at this
	// size; the paper's 99.89% emerges at ≳90k domains. Cloudflare must
	// still dominate overwhelmingly.
	if res.FullMean < 85 {
		t.Errorf("full-Cloudflare share = %.2f%%, want dominant (99.89%% at scale)", res.FullMean)
	}
	if res.NoneMean > 14 {
		t.Errorf("none-Cloudflare share = %.2f%%, want small (0.11%% at scale)", res.NoneMean)
	}
	if res.FullMean+res.NoneMean+res.PartialMean < 99 ||
		res.FullMean+res.NoneMean+res.PartialMean > 101 {
		t.Errorf("category shares do not sum to 100: %v", res)
	}
	_ = res.Table("dynamic")
}

func TestTable3AndFig3NonCFProviders(t *testing.T) {
	res := NonCFProviders(store(t), nil)
	if res.DistinctTotal == 0 {
		t.Fatal("no non-CF providers observed")
	}
	for _, pc := range res.TopProviders {
		if isCloudflareOrg(pc.Org) {
			t.Errorf("Cloudflare leaked into the non-CF table")
		}
	}
	// Fig 3: upward trend in distinct provider count.
	first, last, _ := trendDelta(res.DailyDistinct)
	if last < first {
		t.Errorf("non-CF provider count fell: %.0f → %.0f (paper: upward trend)", first, last)
	}
	_ = res.Table(5)
}

func TestIntermittency(t *testing.T) {
	res := Intermittency(store(t))
	if res.Intermittent == 0 {
		t.Fatal("no intermittent domains detected (paper: 4,598 at 1M scale)")
	}
	if res.SameNS == 0 {
		t.Error("no same-NS intermittent domains (paper: 59.13%)")
	}
	if res.SameNSAllCF == 0 {
		t.Error("no exclusively-Cloudflare same-NS intermittents (paper: 98.31%)")
	}
	if res.NSChanged == 0 {
		t.Error("no NS-change intermittents (paper: multi-provider mixes)")
	}
	// Coverage weighting: each domain contributes (observed days /
	// window days) ∈ (0, 1], so weighted totals are positive, never
	// exceed the raw counts, and the buckets still sum to the total.
	if res.WeightedIntermittent <= 0 || res.WeightedIntermittent > float64(res.Intermittent) {
		t.Errorf("weighted intermittent = %.2f, raw %d", res.WeightedIntermittent, res.Intermittent)
	}
	if res.WeightedSameNS > float64(res.SameNS) || res.WeightedNSChanged > float64(res.NSChanged) ||
		res.WeightedLostNS > float64(res.LostNS) {
		t.Errorf("a weighted bucket exceeds its raw count: %+v", res)
	}
	sum := res.WeightedSameNS + res.WeightedNSChanged + res.WeightedLostNS
	if diff := sum - res.WeightedIntermittent; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weighted buckets sum to %.4f, want %.4f", sum, res.WeightedIntermittent)
	}
	_ = res.Table()
}

func TestTable4DefaultVsCustom(t *testing.T) {
	res := DefaultVsCustom(store(t), nil)
	if res.Days == 0 {
		t.Fatal("no days analysed")
	}
	if res.DefaultMean < 60 || res.DefaultMean > 95 {
		t.Errorf("default share = %.2f%%, paper 79.96%%", res.DefaultMean)
	}
	_ = res.Table("dynamic")
}

func TestTable5ProviderParams(t *testing.T) {
	google := ProviderParams(store(t), "Google")
	godaddy := ProviderParams(store(t), "GoDaddy")
	if google.Domains == 0 || godaddy.Domains == 0 {
		t.Skip("provider populations too small at this scale")
	}
	if google.ServiceModePct < 80 {
		t.Errorf("Google ServiceMode = %.1f%%, paper 98.95%%", google.ServiceModePct)
	}
	if google.NoALPNPct < 60 {
		t.Errorf("Google empty-alpn = %.1f%%, paper 95.11%%", google.NoALPNPct)
	}
	if godaddy.AliasModePct < 80 {
		t.Errorf("GoDaddy AliasMode = %.1f%%, paper 99.19%%", godaddy.AliasModePct)
	}
	_ = Table5(google, godaddy)
}

func TestSvcParamsOverview(t *testing.T) {
	res := SvcParams(store(t), "apex")
	if res.ServiceModePct < 95 {
		t.Errorf("ServiceMode share = %.2f%%, paper 99.97%%", res.ServiceModePct)
	}
	if res.AliasSelfTarget == 0 {
		t.Error("no AliasMode-self-target pathology observed (paper: 19+22)")
	}
	if res.ServiceNoParams == 0 {
		t.Error("no ServiceMode-without-params domains (paper: 232)")
	}
	if res.PriorityListDomains == 0 {
		t.Error("no multi-priority domains (paper: 14)")
	}
	_ = res.Table("apex")
}

func TestTable8ALPN(t *testing.T) {
	_, phase2 := OverlappingSets(store(t))
	res := ALPN(store(t), "apex", phase2, providers.H3Draft29SunsetDate)
	if res.Share["h2"] < 90 {
		t.Errorf("h2 share = %.1f%%, paper 99.64%%", res.Share["h2"])
	}
	if res.Share["h3"] < 50 || res.Share["h3"] > res.Share["h2"] {
		t.Errorf("h3 share = %.1f%%, paper 78.42%% (below h2)", res.Share["h3"])
	}
	if res.H3Draft29Before <= res.H3Draft29After {
		t.Errorf("h3-29 before (%.1f%%) not above after (%.1f%%): sunset not visible",
			res.H3Draft29Before, res.H3Draft29After)
	}
	_ = res.Table()
}

func TestFig11HintUsage(t *testing.T) {
	res := HintUsage(store(t), "apex")
	if len(res.V4Usage.Points) == 0 {
		t.Fatal("no points")
	}
	_, v4Last, _ := trendDelta(res.V4Usage)
	if v4Last < 85 {
		t.Errorf("ipv4hint usage = %.1f%%, paper ≈97%%", v4Last)
	}
	_, matchLast, _ := trendDelta(res.V4Match)
	if matchLast < 90 {
		t.Errorf("v4 hint match = %.1f%%, paper >99%% post-fix", matchLast)
	}
	// v6 below v4 usage.
	_, v6Last, _ := trendDelta(res.V6Usage)
	if v6Last > v4Last+2 {
		t.Errorf("ipv6hint usage (%.1f%%) above ipv4hint (%.1f%%)", v6Last, v4Last)
	}
	_ = res.Tables()
}

func TestFig12MismatchDurations(t *testing.T) {
	res := MismatchDurations(store(t), "apex")
	if res.DistinctDomains == 0 {
		t.Fatal("no mismatched domains observed")
	}
	if res.MeanDays <= 0 || res.MeanDays > 60 {
		t.Errorf("mean mismatch duration = %.1f days, paper 6.57", res.MeanDays)
	}
	if res.PersistentDomains == 0 {
		t.Error("no persistent mismatch domains (paper: 5)")
	}
	_ = res.Table()
}

func TestConnectivityProbes(t *testing.T) {
	res := Connectivity(store(t))
	if res.Occurrences == 0 {
		t.Fatal("no probe occurrences (experiment window Jan 24 – Mar 31)")
	}
	if res.AnyUnreachable == 0 {
		t.Error("no unreachable domains observed (paper: 193 of 317)")
	}
	if res.AnyUnreachable > res.DistinctDomains {
		t.Error("inconsistent aggregation")
	}
	// Paper: of the unreachable domains, hint-only (117) outnumbers
	// A-only (59); at small scale just require consistency.
	if res.HintOnly+res.AOnly > res.AnyUnreachable {
		t.Error("reachability split exceeds unreachable count")
	}
	_ = res.Table()
}

func TestFig13ECHDeployment(t *testing.T) {
	res := ECHDeployment(store(t), nil)
	before := valueOn(res.Apex, time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
	if before < 50 || before > 90 {
		t.Errorf("ECH share before shutdown = %.1f%%, paper ≈70%%", before)
	}
	after := valueOn(res.Apex, time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC))
	if after > 1 {
		t.Errorf("ECH share after shutdown = %.1f%%, paper 0%%", after)
	}
	if res.DropDate.IsZero() {
		t.Error("shutdown drop not detected")
	} else {
		gap := res.DropDate.Sub(providers.ECHDisableDate)
		if gap < 0 {
			gap = -gap
		}
		if gap > 14*24*time.Hour {
			t.Errorf("drop detected at %v, expected near Oct 5 2023", res.DropDate)
		}
	}
	_ = res.Table()
}

func TestFig4ECHRotation(t *testing.T) {
	res := ECHRotation(store(t))
	if res.DistinctConfigs < 10 {
		t.Fatalf("distinct configs = %d over 48 hourly scans, want ≳30", res.DistinctConfigs)
	}
	if len(res.PublicNames) != 1 || res.PublicNames[0] != "cloudflare-ech.com" {
		t.Errorf("public names = %v, paper: only cloudflare-ech.com", res.PublicNames)
	}
	if res.MeanDurationHours < 0.9 || res.MeanDurationHours > 2.0 {
		t.Errorf("mean config duration = %.2fh, paper 1.26h (1–2h band)", res.MeanDurationHours)
	}
	_ = res.Table()
}

func TestFig5Signed(t *testing.T) {
	res := Signed(store(t), nil)
	_, last, _ := trendDelta(res.SignedApex)
	if last < 3 || last > 20 {
		t.Errorf("signed share = %.1f%%, paper <10%%", last)
	}
	_, validLast, _ := trendDelta(res.ValidApex)
	if validLast > last {
		t.Errorf("validated (%.1f%%) exceeds signed (%.1f%%)", validLast, last)
	}
	if validLast >= last*0.95 {
		t.Errorf("validated ≈ signed (%.1f vs %.1f); paper: ≈half cannot validate", validLast, last)
	}
	_ = res.Tables("dynamic")
}

func TestTable9Census(t *testing.T) {
	res := Census(store(t))
	if res.WithHTTPS.Signed == 0 || res.WithoutHTTPS.Signed == 0 {
		t.Fatalf("census empty: %+v", res)
	}
	withIns := pct(res.WithHTTPS.Insecure, res.WithHTTPS.Signed)
	withoutIns := pct(res.WithoutHTTPS.Insecure, res.WithoutHTTPS.Signed)
	if withIns < 30 || withIns > 65 {
		t.Errorf("insecure (with HTTPS) = %.1f%%, paper 49.4%%", withIns)
	}
	if withoutIns < 10 || withoutIns > 40 {
		t.Errorf("insecure (without HTTPS) = %.1f%%, paper 23.7%%", withoutIns)
	}
	if withIns <= withoutIns {
		t.Errorf("HTTPS-domain insecure ratio (%.1f%%) not above non-HTTPS (%.1f%%)", withIns, withoutIns)
	}
	// CF-NS signed domains are the drivers of the high insecure ratio.
	cfIns := pct(res.CFNS.Insecure, res.CFNS.Signed)
	nonIns := pct(res.NonCFNS.Insecure, res.NonCFNS.Signed)
	if res.NonCFNS.Signed > 0 && cfIns <= nonIns {
		t.Errorf("CF insecure (%.1f%%) not above non-CF (%.1f%%); paper 49.5%% vs 14.1%%", cfIns, nonIns)
	}
	if res.WithHTTPS.Bogus != 0 {
		t.Errorf("bogus results present: %d (paper: none)", res.WithHTTPS.Bogus)
	}
	_ = res.Table()
}

func TestFig14SignedECH(t *testing.T) {
	res := SignedECH(store(t), nil)
	// Only meaningful before the shutdown.
	v := valueOn(res.SignedPct, time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC))
	if v > 15 {
		t.Errorf("signed ECH share = %.1f%%, paper <6%%", v)
	}
	_ = res.Table()
}

func TestFig8Rankings(t *testing.T) {
	phase1, _ := OverlappingSets(store(t))
	stats := RankDistributions(store(t), phase1)
	if len(stats) != 2 {
		t.Fatal("want two populations")
	}
	if stats[0].Count == 0 || stats[1].Count == 0 {
		t.Fatal("empty rank populations")
	}
	if stats[0].Mean >= stats[1].Mean {
		t.Errorf("overlapping mean rank (%.0f) not above (better than) non-overlapping (%.0f)",
			stats[0].Mean, stats[1].Mean)
	}
	_ = RankTable("Fig 8", stats...)
	_ = NonCFRankings(store(t))
}

// TestIntermittencyMinObsGate pins the sparse-history edge: a domain that
// deactivated but was only observed on two in-list days is classified at
// the structural floor (min 2) yet skipped — and counted as skipped —
// under a higher observation gate, while a dense history survives any
// reasonable gate.
func TestIntermittencyMinObsGate(t *testing.T) {
	st := dataset.NewStore()
	day0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	obsFor := func(name string) *dataset.Observation {
		return &dataset.Observation{
			Name:  name,
			HTTPS: []dataset.HTTPSRecord{{Priority: 1, Target: "."}},
			NS:    []string{"ns1.prov.test."},
		}
	}
	// dense.test: in the list on all 4 days, published on days 0-2, off on
	// day 3. sparse.test: churned into the list on days 0-1 only,
	// published on day 0, off on day 1 — one deactivation on a two-day
	// history.
	for i := 0; i < 4; i++ {
		day := day0.AddDate(0, 0, i)
		list := []string{"dense.test."}
		if i < 2 {
			list = append(list, "sparse.test.")
		}
		obs := map[string]*dataset.Observation{}
		if i < 3 {
			obs["dense.test."] = obsFor("dense.test.")
		}
		if i == 0 {
			obs["sparse.test."] = obsFor("sparse.test.")
		}
		st.AddTrancoList(day, list)
		st.AddSnapshot(&dataset.Snapshot{Date: day, Kind: "apex", Total: len(list), Obs: obs})
		st.AddNSSnapshot(&dataset.NSSnapshot{Date: day, Servers: map[string]*dataset.NSObservation{
			"ns1.prov.test.": {Host: "ns1.prov.test.", Org: "ProvTest"},
		}})
	}

	floor := Intermittency(st)
	if floor.Intermittent != 2 || floor.SparseSkipped != 0 {
		t.Fatalf("floor gate: intermittent=%d skipped=%d, want 2/0", floor.Intermittent, floor.SparseSkipped)
	}
	gated := IntermittencyMinObs(st, 3)
	if gated.Intermittent != 1 || gated.SparseSkipped != 1 {
		t.Fatalf("minObs=3: intermittent=%d skipped=%d, want 1/1", gated.Intermittent, gated.SparseSkipped)
	}
	if gated.MinObservations != 3 {
		t.Errorf("MinObservations = %d", gated.MinObservations)
	}
	// The skipped row appears only when the gate exceeds the floor.
	if rows := len(gated.Table().Rows); rows != len(floor.Table().Rows)+1 {
		t.Errorf("gated table rows = %d, floor = %d (want +1 skipped row)", rows, len(floor.Table().Rows))
	}
	// A gate at the dense history's length still admits it.
	if all := IntermittencyMinObs(st, 4); all.Intermittent != 1 || all.SparseSkipped != 1 {
		t.Errorf("minObs=4: %+v", all)
	}
	// Below-floor values clamp to the structural minimum.
	if clamped := IntermittencyMinObs(st, 0); clamped.Intermittent != 2 || clamped.MinObservations != 2 {
		t.Errorf("minObs=0 not clamped: %+v", clamped)
	}
}

// TestStaleECHCorrelation pins the §4.4.2 join: per-day serving
// snapshots and hourly ECH observations line up by UTC day, domains
// serving two or more distinct configs within a day count as
// inconsistent, and coincident days (stale serves and inconsistency
// together) are flagged.
func TestStaleECHCorrelation(t *testing.T) {
	st := dataset.NewStore()
	day1 := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	day2 := day1.AddDate(0, 0, 1)
	st.AddServing(&dataset.ServingSnapshot{Date: day1, StaleServed: 3, UpstreamFailures: 2, StaleWindowSec: 3600})
	st.AddServing(&dataset.ServingSnapshot{Date: day2, StaleServed: 0})
	// Day 1: a.test rotates through three configs (inconsistent), b.test
	// holds one. Day 2: a.test is stable — no inconsistency despite the
	// extra observation hours.
	for h, key := range []uint64{11, 22, 33} {
		st.AddECH(dataset.ECHObservation{Time: day1.Add(time.Duration(h) * time.Hour), Domain: "a.test.", KeyHash: key})
	}
	st.AddECH(dataset.ECHObservation{Time: day1.Add(time.Hour), Domain: "b.test.", KeyHash: 7})
	st.AddECH(dataset.ECHObservation{Time: day2.Add(time.Hour), Domain: "a.test.", KeyHash: 33})
	st.AddECH(dataset.ECHObservation{Time: day2.Add(2 * time.Hour), Domain: "a.test.", KeyHash: 33})

	res := StaleECHCorrelation(st)
	if len(res.Days) != 2 {
		t.Fatalf("joined %d days, want 2", len(res.Days))
	}
	d1, d2 := res.Days[0], res.Days[1]
	if !d1.HasServing || d1.StaleServed != 3 || d1.UpstreamFailures != 2 || d1.StaleWindowSec != 3600 {
		t.Errorf("day1 serving side: %+v", d1)
	}
	if d1.ECHDomains != 2 || d1.InconsistentDomains != 1 || d1.MaxConfigs != 3 {
		t.Errorf("day1 ECH side: %+v", d1)
	}
	if d2.ECHDomains != 1 || d2.InconsistentDomains != 0 || d2.MaxConfigs != 1 {
		t.Errorf("day2 ECH side: %+v", d2)
	}
	if res.TotalStaleServed != 3 || res.TotalInconsistent != 1 || res.CoincidentDays != 1 {
		t.Errorf("totals: %+v", res)
	}
	// Rows: one per day plus the totals row.
	if rows := len(res.Table().Rows); rows != 3 {
		t.Errorf("table rows = %d, want 3", rows)
	}
	// Empty store renders the placeholder row rather than panicking.
	if rows := len(StaleECHCorrelation(dataset.NewStore()).Table().Rows); rows != 1 {
		t.Errorf("empty-store table rows = %d, want 1", rows)
	}
}

// TestAnomalyReport renders captures straight from a hand-built store:
// verdict columns, event totals, and the most frequent event group.
func TestAnomalyReport(t *testing.T) {
	s := dataset.NewStore()
	day := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	s.AddAnomaly(&dataset.AnomalyCapture{
		Date: day, Exchanges: 100, Errors: 2, ServFails: 1, StaleServed: 5,
		Availability: 0.97, StaleRatio: 0.05, Violations: 2,
		Events: []dataset.AnomalyEvent{
			{Key: "client.error", Count: 2},
			{Key: "client.stale", Count: 5},
		},
		Traces: []dataset.AnomalyTrace{{Name: "a.example.", Flags: []string{"stale"}}},
	})
	s.AddAnomaly(&dataset.AnomalyCapture{
		Date: day.AddDate(0, 0, 7), Exchanges: 50, Availability: 1,
	})
	tab := AnomalyReport(s)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	r := tab.Rows[0]
	if r[0] != "2024-01-25" || r[1] != "100" || r[7] != "2" {
		t.Fatalf("verdict row = %v", r)
	}
	if r[8] != "7" || r[9] != "1" || r[10] != "client.stale ×5" {
		t.Fatalf("evidence columns = %v", r[8:])
	}
	// A capture with no events renders the placeholder top event.
	if tab.Rows[1][10] != "-" {
		t.Fatalf("empty-events top = %q", tab.Rows[1][10])
	}
}

// TestIntermittencyAgainstGenerator checks the §4.2.3 verdicts against the
// world generator, which knows why each domain's HTTPS records come and go.
// A daily campaign over the NS window must classify no domain the generator
// made steady, and each generated cause must land in its class: a proxied
// toggle keeps its NS set, a multi-provider mix changes it, a domain that
// loses its NS records is lost. A switch away from Cloudflare reads as
// SameNS: the store keeps a domain's NS set only on days it has HTTPS
// records, and after the switch it has none.
func TestIntermittencyAgainstGenerator(t *testing.T) {
	c, err := core.NewCampaign(core.CampaignConfig{Size: 300, Seed: 31, StepDays: 1, Start: providers.NSScanStart})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunDaily(); err != nil {
		t.Fatal(err)
	}
	want := map[providers.IntermittencyKind]IntermittencyClass{
		providers.IntermitProxiedToggle: IntermitSameNS,
		providers.IntermitMultiProvider: IntermitNSChanged,
		providers.IntermitSwitchAway:    IntermitSameNS,
		providers.IntermitNoNS:          IntermitLostNS,
	}
	seen := map[providers.IntermittencyKind]int{}
	for name, v := range classifyIntermittency(c.Store) {
		d := c.World.Domains[name]
		if d == nil {
			t.Fatalf("%s classified but not in the world", name)
		}
		if d.Intermittent == providers.IntermitNone {
			t.Errorf("%s: steady domain classified %v", name, v.Class)
			continue
		}
		seen[d.Intermittent]++
		if v.Class != want[d.Intermittent] {
			t.Errorf("%s: generated as kind %d, classified %v, want %v", name, d.Intermittent, v.Class, want[d.Intermittent])
		}
	}
	for kind := range want {
		if seen[kind] == 0 {
			t.Errorf("no domain of generated kind %d classified: the campaign shows too little", kind)
		}
	}
	t.Logf("classified per generated kind: %v", seen)
}

// TestNonCFPopulation: Table 3 and Fig 9 count one population, the adopters
// with no Cloudflare name server. A domain that mixes Cloudflare with
// another operator is Table 2's partial row and in neither.
func TestNonCFPopulation(t *testing.T) {
	st := dataset.NewStore()
	day := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	adopter := func(name string, rank int, ns ...string) *dataset.Observation {
		return &dataset.Observation{Name: name, Rank: rank, NS: ns,
			HTTPS: []dataset.HTTPSRecord{{Priority: 1, Target: "."}}}
	}
	st.AddSnapshot(&dataset.Snapshot{Date: day, Kind: "apex", Total: 3, Obs: map[string]*dataset.Observation{
		"full.test.":    adopter("full.test.", 1, "ns1.cf.test."),
		"partial.test.": adopter("partial.test.", 2, "ns1.cf.test.", "ns1.other.test."),
		"none.test.":    adopter("none.test.", 3, "ns1.other.test."),
	}})
	st.AddNSSnapshot(&dataset.NSSnapshot{Date: day, Servers: map[string]*dataset.NSObservation{
		"ns1.cf.test.":    {Host: "ns1.cf.test.", Org: CloudflareOrg},
		"ns1.other.test.": {Host: "ns1.other.test.", Org: "Other"},
	}})
	if got := NonCFRankings(st); got.Count != 1 || got.Median != 3 {
		t.Errorf("Fig 9 counts %d domains, median rank %d; want none.test. alone (rank 3)", got.Count, got.Median)
	}
	if got := NonCFProviders(st, nil).TopProviders; len(got) != 1 || got[0] != (ProviderCount{"Other", 1}) {
		t.Errorf("Table 3 = %+v, want Other with one domain", got)
	}
	third := pct(1, 3)
	if got := NSCategories(st, nil); got.FullMean != third || got.NoneMean != third || got.PartialMean != third {
		t.Errorf("Table 2 = %+v, want a third in each row", got)
	}
}

// trendDelta summarises a series: first value, last value, and change.
func trendDelta(s Series) (first, last, delta float64) {
	if len(s.Points) == 0 {
		return 0, 0, 0
	}
	first = s.Points[0].Value
	last = s.Points[len(s.Points)-1].Value
	return first, last, last - first
}

// valueOn returns the series value on the sample closest to date.
func valueOn(s Series, date time.Time) float64 {
	best := 0.0
	bestDiff := time.Duration(1 << 62)
	for _, p := range s.Points {
		d := p.Date.Sub(date)
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestDiff = d
			best = p.Value
		}
	}
	return best
}
