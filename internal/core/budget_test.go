package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/testrace"
)

// TestDirectCampaignAllocBudget pins what the paper's method allocates per
// scanned name: a direct campaign (stub to public recursor, no fleet, one
// day and one scan worker at a time) over 300 names, apex and www, on two
// days. Answers and referrals cost no records of their own (the SOA, the
// HTTPS, A and AAAA sets and the referral sections are memoised per
// domain), recursor cache entries and walk queries come from slabs, and
// list names are spelled once per world: about 19 allocations per name,
// 22 with the positive sets built and the walk's query drawn from the
// skeleton pool per query, and about 27 with nothing memoised.
func TestDirectCampaignAllocBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const size, days, ceiling = 300, 2, 20.0
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
	names := 2 * size * days
	if per := float64(after.Mallocs-before.Mallocs) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.2f allocations each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.2f allocations each", names, per)
	}
}
