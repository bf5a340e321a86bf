package core

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestQueryTotalIndependentOfWorkers pins how many DNS queries a campaign
// sends, at every worker count: a scan context scans on one goroutine, so
// no two scans of a day race to a cold zone cut and every recursor walk is
// a function of the seed. It runs an 8-day daily campaign of 300 names
// (the NS scans and connectivity probes included) at 1, 2 and 8 day
// workers, direct and through a 2:1:1 racing fleet, and a one-day hourly
// ECH campaign through that fleet at 1 and 8 hour workers. A change that
// moves a total says why in CHANGES.md.
func TestQueryTotalIndependentOfWorkers(t *testing.T) {
	start := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	racing := func(cfg *CampaignConfig) {
		cfg.DoHFrontends = 4
		cfg.TransportMix = transport.Mix{DoH: 2, DoT: 1, DoQ: 1}
		cfg.TransportStrategy = transport.StrategyRace
	}
	daily := func(fleet bool, workers int) uint64 {
		cfg := CampaignConfig{Size: 300, Seed: 7, Start: start, End: start.AddDate(0, 0, 7), DayWorkers: workers}
		if fleet {
			racing(&cfg)
		}
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		return c.World.Net.QueryCount()
	}
	hourly := func(workers int) uint64 {
		cfg := CampaignConfig{Size: 300, Seed: 7, HourWorkers: workers}
		racing(&cfg)
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 1)
		return c.World.Net.QueryCount()
	}
	for _, tc := range []struct {
		name    string
		workers []int
		run     func(workers int) uint64
		want    uint64
	}{
		{"daily direct", []int{1, 2, 8}, func(w int) uint64 { return daily(false, w) }, 20269},
		{"daily racing fleet", []int{1, 2, 8}, func(w int) uint64 { return daily(true, w) }, 12970},
		{"hourly ECH racing fleet", []int{1, 8}, hourly, 2663},
	} {
		for _, w := range tc.workers {
			if got := tc.run(w); got != tc.want {
				t.Errorf("%s at %d workers sent %d DNS queries, want %d", tc.name, w, got, tc.want)
			}
		}
	}
}
