package workload

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/testrace"
)

// nopTarget answers every query with one fixed message, so what a run
// costs is the engine's own work.
type nopTarget struct{ resp dnswire.Message }

func (n *nopTarget) Exchange(*dnswire.Message) (*dnswire.Message, error) { return &n.resp, nil }

// TestRunAllocsIndependentOfQueries: New allocates everything a run
// needs, so Run allocates the same small amount whether it serves 10^4
// or 10^5 queries. The count is process-wide, so an allocation of the
// runtime's own that lands inside the window adds to it; Run is
// deterministic, so its own count repeats, and the least over three fresh
// engines is Run's.
func TestRunAllocsIndependentOfQueries(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(queries int) float64 {
		cfg := Config{
			Clients: 20_000, Model: ModelOpen, Seed: 3,
			Domains: testDomains(500), Duration: 24 * time.Hour, MaxQueries: queries,
		}
		least := math.Inf(1)
		for range 3 {
			// AllocsPerRun calls the function once to warm up, then once more.
			var engines []*Engine
			for i := 0; i < 2; i++ {
				e, err := New(cfg, testClock(), &nopTarget{})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			least = min(least, testing.AllocsPerRun(1, func() {
				e := engines[0]
				engines = engines[1:]
				if sum := e.Run(); sum.Queries != uint64(queries) {
					t.Fatalf("ran %d queries, want %d", sum.Queries, queries)
				}
			}))
		}
		return least
	}
	small, large := allocs(10_000), allocs(100_000)
	if small != large {
		t.Fatalf("Run allocates %v times at 10^4 queries and %v at 10^5: something in the loop allocates", small, large)
	}
	if small > 32 {
		t.Fatalf("Run allocates %v times, want at most 32", small)
	}
}

// BenchmarkEngine times the engine alone at the repo benchmark's
// serve-hot shape (10^6 open-loop clients, Zipf s = 1 over 500 names,
// 900 000 queries) against a target that does nothing: ns/query is the
// engine's own cost per query (seeding a million first arrivals
// included, as the repo benchmark's workload.engine_ns_per_query counts
// it), B/client what New allocates per simulated client.
func BenchmarkEngine(b *testing.B) {
	cfg := Config{
		Clients: 1_000_000, Model: ModelOpen, Seed: 1,
		Domains: testDomains(500), ZipfS: 1,
		Duration: 24 * time.Hour, MaxQueries: 900_000,
	}
	var ns, queries, bytes float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		e, err := New(cfg, testClock(), &nopTarget{})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		b.StartTimer()
		t0 := time.Now()
		sum := e.Run()
		ns += float64(time.Since(t0))
		queries += float64(sum.Queries)
	}
	b.ReportMetric(ns/queries, "ns/query")
	b.ReportMetric(bytes/float64(b.N*cfg.Clients), "B/client")
}
