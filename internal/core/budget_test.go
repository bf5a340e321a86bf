package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/testrace"
)

// runDirectCampaign runs the paper's method over size names for days days —
// a direct campaign (stub to public recursor, no fleet, one day and one
// scan worker at a time) — and returns the names it scanned, apex and www,
// and the allocations and bytes the run made.
func runDirectCampaign(t *testing.T, size, days int) (names int, mallocs, bytes uint64) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	start := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	c, err := NewCampaign(CampaignConfig{Size: size, Seed: 7, Start: start, End: start.AddDate(0, 0, days-1)})
	if err != nil {
		t.Fatal(err)
	}
	c.Scanner.Concurrency = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.RunDaily(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return 2 * size * days, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestDirectCampaignAllocBudget pins what the paper's method allocates per
// scanned name over 300 names on two days. Answers and referrals cost no
// records of their own (every set a provider or TLD hands out is a memoised
// box that carries its RRSIG, and the referral sections are memoised per
// domain), recursor cache entries come from a slab, walk queries from the
// query table the day forks share, and list names are spelled once per
// world: about 18.9 allocations per name.
func TestDirectCampaignAllocBudget(t *testing.T) {
	const ceiling = 18.95
	names, mallocs, _ := runDirectCampaign(t, 300, 2)
	if per := float64(mallocs) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.2f allocations each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.2f allocations each", names, per)
	}
}

// TestDirectCampaignBytesBudget pins the bytes the same campaign allocates
// per scanned name over eight days, where the collector's work follows
// bytes, not objects: each walk query is built once per world, not once per
// walk, and each day's answer and cut maps start at the previous day's
// size instead of regrowing from empty. About 1 235 B per name.
func TestDirectCampaignBytesBudget(t *testing.T) {
	const ceiling = 1400.0
	names, _, bytes := runDirectCampaign(t, 300, 8)
	if per := float64(bytes) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.0f B each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.0f B each", names, per)
	}
}
