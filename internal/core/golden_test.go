package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/providers"
	"repro/internal/transport"
)

// The golden digests pin Store.WriteJSON bytes across commits: the
// byte-identity battery above only compares worker counts inside one
// build, so a refactor that changed what both sides store would pass it.
// The constants were generated at the commit before the store lost its
// shards and the DoH codec moved into transport; a change that needs to
// edit one has changed what a campaign measures or how the store renders
// it, and must say so.
//
// goldenDailyFleet was re-pinned once (from ef31d928…) when zone keys
// became derived values: building the TLDs and the root no longer draws
// from the world's population generator, so assignSpecialPopulations
// deals a different hand to the same calibration.
// No key or signature byte is stored; goldenHourlyECH, whose campaign does
// not look at those populations, did not move.
const (
	goldenDailyFleet = "078c3bfd205fd4f9d41aadffc4eac8cdf0e25673849c7780de101e694b8e2e2f"
	goldenHourlyECH  = "ec93e90c5ab714932512e801a8f9e38abfebf0841946171a76a71b9b3bce8931"
)

// goldenFleet is the serving layer both campaigns run through: the
// mixed racing fleet the benchmark's fleet workloads use.
func goldenFleet(cfg CampaignConfig) CampaignConfig {
	cfg.DoHFrontends = 4
	cfg.TransportMix = transport.Mix{DoH: 2, DoT: 1, DoQ: 1}
	cfg.TransportStrategy = transport.StrategyRace
	cfg.TelemetryInterval = time.Hour
	return cfg
}

func TestGoldenStoreDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		cfg  CampaignConfig
		run  func(c *Campaign) error
	}{
		{
			// Past connectivityProbeStart, so snapshots, NS snapshots,
			// probes, serving snapshots, telemetry and anomaly captures are
			// all in the export; the census adds the validation table.
			name: "daily-fleet", want: goldenDailyFleet,
			cfg: goldenFleet(CampaignConfig{
				Size: 300, Seed: 29,
				Start:          time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
				End:            time.Date(2024, 2, 8, 0, 0, 0, 0, time.UTC),
				StepDays:       7,
				DayWorkers:     3,
				AnomalyCapture: true,
			}),
			run: func(c *Campaign) error {
				if err := c.RunDaily(); err != nil {
					return err
				}
				c.RunValidationCensus(c.Cfg.End)
				return nil
			},
		},
		{
			name: "hourly-ech", want: goldenHourlyECH,
			cfg: goldenFleet(CampaignConfig{Size: 300, Seed: 31, HourWorkers: 4}),
			run: func(c *Campaign) error {
				c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 1)
				return nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCampaign(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(c); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(storeJSON(t, c))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("store digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestAnalysesLeaveTheStoreUnchanged: a store's slices are shared between
// observations and read-only (dataset's "Shared values"), so no analysis
// may write into one. Every analysis reproduce runs is run twice, its
// tables rendered, over the stores of both golden campaigns, which must
// still render to their golden digests.
func TestAnalysesLeaveTheStoreUnchanged(t *testing.T) {
	daily, err := NewCampaign(goldenFleet(CampaignConfig{
		Size: 300, Seed: 29,
		Start:    time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2024, 2, 8, 0, 0, 0, 0, time.UTC),
		StepDays: 7, DayWorkers: 3, AnomalyCapture: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := daily.RunDaily(); err != nil {
		t.Fatal(err)
	}
	daily.RunValidationCensus(daily.Cfg.End)
	hourly, err := NewCampaign(goldenFleet(CampaignConfig{Size: 300, Seed: 31, HourWorkers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	hourly.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 1)

	for _, c := range []struct {
		name, want string
		st         *dataset.Store
	}{{"daily-fleet", goldenDailyFleet, daily.Store}, {"hourly-ech", goldenHourlyECH, hourly.Store}} {
		for range 2 {
			runEveryAnalysis(c.st)
		}
		var buf bytes.Buffer
		if err := c.st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s: store digest %x after the analyses, want %s", c.name, sum, c.want)
		}
	}
}

// runEveryAnalysis runs each analysis reproduce reports over st and
// renders its tables.
func runEveryAnalysis(st *dataset.Store) {
	phase1, phase2 := analysis.OverlappingSets(st)
	nonCF := analysis.NonCFProviders(st, nil)
	tables := analysis.Adoption(st).Tables()
	tables = append(tables, analysis.HintUsage(st, "apex").Tables()...)
	tables = append(tables, analysis.Signed(st, nil).Tables("dynamic")...)
	tables = append(tables, analysis.Signed(st, phase2).Tables("overlapping")...)
	tables = append(tables,
		analysis.NSCategories(st, nil).Table("dynamic"), analysis.NSCategories(st, phase2).Table("overlapping"),
		nonCF.Table(10), analysis.SeriesTable("fig3", 20, nonCF.DailyDistinct),
		analysis.IntermittencyMinObs(st, analysis.DefaultIntermittencyMinObs).Table(),
		analysis.DefaultVsCustom(st, nil).Table("dynamic"), analysis.DefaultVsCustom(st, phase2).Table("overlapping"),
		analysis.Table5(analysis.ProviderParams(st, "Google"), analysis.ProviderParams(st, "GoDaddy")),
		analysis.SvcParams(st, "apex").Table("apex"), analysis.SvcParams(st, "www").Table("www"),
		analysis.ALPN(st, "apex", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.ALPN(st, "www", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.MismatchDurations(st, "apex").Table(), analysis.Connectivity(st).Table(),
		analysis.ECHDeployment(st, nil).Table(), analysis.ECHRotation(st).Table(),
		analysis.Census(st).Table(), analysis.StaleECHCorrelation(st).Table(),
		analysis.TelemetryTimeline(st, "daily"), analysis.TelemetryTimeline(st, "hourly-ech"),
		analysis.AnomalyReport(st), analysis.SignedECH(st, nil).Table(),
		analysis.RankTable("fig8", append(analysis.RankDistributions(st, phase1), analysis.NonCFRankings(st))...),
	)
	for _, tbl := range tables {
		tbl.Format()
	}
}
