package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

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
