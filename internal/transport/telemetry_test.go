package transport

import (
	"strings"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// TestStatsRatiosZeroDenominator pins the ratio accessors' zero-value
// behavior: freshly built stats report 0, not NaN, so report formatting
// never has to special-case an idle fleet.
func TestStatsRatiosZeroDenominator(t *testing.T) {
	var fs FrontendStats
	if got := fs.HitRate(); got != 0 {
		t.Errorf("zero FrontendStats.HitRate() = %v, want 0", got)
	}
	var ss StrategyStats
	if got := ss.WasteRate(); got != 0 {
		t.Errorf("zero StrategyStats.WasteRate() = %v, want 0", got)
	}
	fs.Served, fs.CacheHits = 4, 1
	if got := fs.HitRate(); got != 0.25 {
		t.Errorf("HitRate() = %v, want 0.25", got)
	}
	ss.Attempts, ss.Wasted = 8, 2
	if got := ss.WasteRate(); got != 0.25 {
		t.Errorf("WasteRate() = %v, want 0.25", got)
	}
}

// TestFleetRegistrySnapshot verifies the fleet binds its whole surface
// onto the obs registry: client counters, cache and pool views, fleet
// aggregates, and the exchange-latency histogram — and that the stable
// subset excludes the schedule-dependent names.
func TestFleetRegistrySnapshot(t *testing.T) {
	client, fl, _, _, _ := newTestFleet(t, 2, BalanceRoundRobin, ProtoDoH, ProtoDoT)
	for _, name := range []string{"one.test", "two.test", "one.test"} {
		if _, err := client.Query(name, dnswire.TypeHTTPS, false); err != nil {
			t.Fatal(err)
		}
	}
	snap := fl.Metrics.Snapshot()
	// Labeled families (frontend_*, pool_member_*) are matched by name
	// since their label sets vary per member.
	byName := map[string]int{}
	for _, m := range snap.Metrics {
		byName[m.Name]++
	}
	for _, name := range []string{
		"client_exchanges_total",
		"strategy_attempts_total",
		"frontend_served_total",
		"cache_entries",
		"pool_members",
		"pool_member_queries_total",
		"fleet_prefetches_total",
		"exchange_latency_seconds",
	} {
		if byName[name] == 0 {
			t.Errorf("snapshot missing %s", name)
		}
	}
	// Each serving event is counted once, by the frontend that served it:
	// the cache keeps only what it owns, and no fleet total shadows a
	// frontend family.
	for _, name := range []string{
		"cache_hits_total", "cache_misses_total", "cache_negative_hits_total",
		"cache_stale_serves_total", "cache_refreshes_total", "fleet_stale_served_total",
	} {
		if byName[name] != 0 {
			t.Errorf("snapshot still carries %s", name)
		}
	}
	if byName["frontend_served_total"] != 2 || byName["pool_member_queries_total"] != 2 {
		t.Errorf("per-member families not per-member: frontend=%d pool=%d, want 2 each",
			byName["frontend_served_total"], byName["pool_member_queries_total"])
	}
	if got := snap.Value("client_exchanges_total"); got != 3 {
		t.Errorf("client_exchanges_total = %v, want 3", got)
	}
	if got := snap.Value("pool_members"); got != 2 {
		t.Errorf("pool_members = %v, want 2", got)
	}
	if m, ok := snap.Get("exchange_latency_seconds"); !ok || m.Count != 3 {
		t.Errorf("exchange_latency_seconds count = %+v, want 3 observations", m)
	}

	stable := fl.Metrics.StableSnapshot()
	if _, ok := stable.Get("client_exchanges_total"); !ok {
		t.Error("stable snapshot dropped client_exchanges_total")
	}
	stableNames := map[string]bool{}
	for _, m := range stable.Metrics {
		stableNames[m.Name] = true
	}
	for _, volatile := range []string{
		"frontend_served_total", "cache_entries",
		"strategy_attempts_total", "exchange_latency_seconds",
	} {
		if stableNames[volatile] {
			t.Errorf("stable snapshot leaked volatile %s", volatile)
		}
	}
}

// TestTraceThroughEnvelopes drives one traced exchange through each
// envelope (DoH, DoT, DoQ) and asserts the span tree carries the full
// path: client receive, the dial attempt, and the server-side frontend
// spans (cache probe, upstream answer, cache commit) nested under it.
func TestTraceThroughEnvelopes(t *testing.T) {
	client, fl, _, _, _ := newTestFleet(t, 3, BalanceRoundRobin, ProtoDoH, ProtoDoT, ProtoDoQ)
	client.Tracer = obs.NewTracer(nil, obs.TraceConfig{SampleEvery: 1})

	for i := 0; i < 3; i++ {
		if _, err := client.Query("traced.test", dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
		fl.Cache.Flush() // force every exchange through a dial + upstream
	}
	traces := client.Tracer.Slowest(3)
	if len(traces) != 3 {
		t.Fatalf("sampled %d traces, want 3 (SampleEvery=1)", len(traces))
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		var dial string
		spans := map[string]bool{}
		for _, sp := range tr.Spans {
			spans[sp.Name] = true
			if strings.HasPrefix(sp.Name, "dial ") {
				dial = sp.Name
			}
		}
		if dial == "" {
			t.Fatalf("trace %d has no dial span: %s", tr.ID, tr.Tree())
		}
		seen[dial] = true
		for _, want := range []string{"receive", "cache.probe", "upstream", "cache.put", "commit"} {
			if !spans[want] {
				t.Errorf("trace %d missing %q span:\n%s", tr.ID, want, tr.Tree())
			}
		}
	}
	// Round-robin over a 3-protocol fleet: each envelope carried one
	// traced exchange, so its server-side spans joined the client trace.
	if len(seen) != 3 {
		t.Errorf("dial spans reached %d distinct frontends, want 3: %v", len(seen), seen)
	}
}
