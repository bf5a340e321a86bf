package workload

import (
	"math"
	"testing"
	"time"
)

// TestZipfRankFrequencySlope checks the popularity model statistically:
// empirical draw frequencies over the top ranks must fall on a log-log
// line of slope ≈ −s, the rank-frequency signature of a Zipf law.
func TestZipfRankFrequencySlope(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.2} {
		const n, draws = 500, 400_000
		z := newZipfSampler(n, s)
		r := newRNG(17, 0)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.draw(&r)]++
		}
		// Least-squares slope of log(count) on log(rank+1) over the top
		// 50 ranks — the head carries enough mass per rank for the
		// counts to be statistically stable.
		var sx, sy, sxx, sxy float64
		const top = 50
		for rank := 0; rank < top; rank++ {
			if counts[rank] == 0 {
				t.Fatalf("s=%v: head rank %d never drawn in %d draws", s, rank, draws)
			}
			x, y := math.Log(float64(rank+1)), math.Log(float64(counts[rank]))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		slope := (top*sxy - sx*sy) / (top*sxx - sx*sx)
		if math.Abs(slope+s) > 0.15 {
			t.Errorf("s=%v: rank-frequency slope %.3f, want ≈ %.3f ± 0.15", s, slope, -s)
		}
	}
}

// TestZipfDrawsCoverTail: the alias method must reach the whole
// universe, not just the head.
func TestZipfDrawsCoverTail(t *testing.T) {
	const n = 100
	z := newZipfSampler(n, 1.0)
	r := newRNG(23, 1)
	seen := make([]bool, n)
	distinct := 0
	for i := 0; i < 200_000 && distinct < n; i++ {
		d := z.draw(&r)
		if d >= n {
			t.Fatalf("draw %d outside universe of %d", d, n)
		}
		if !seen[d] {
			seen[d] = true
			distinct++
		}
	}
	if distinct != n {
		t.Fatalf("only %d/%d ranks ever drawn", distinct, n)
	}
}

// TestExponentialInterArrivalMean: the RNG's exponential draws must
// average to the configured mean — the open loop's inter-arrival law.
func TestExponentialInterArrivalMean(t *testing.T) {
	r := newRNG(31, 2)
	const mean, draws = 4.0, 200_000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.exp(mean)
	}
	got := sum / draws
	// Standard error is mean/sqrt(draws) ≈ 0.009; 3σ ≈ 0.027.
	if math.Abs(got-mean) > 0.05 {
		t.Fatalf("empirical mean %.4f, want %.1f ± 0.05", got, mean)
	}
}

// TestOpenLoopRateMatchesConfig: an open-loop run must issue close to
// Clients·OpenRate·Duration queries — the aggregate Poisson rate the
// model promises.
func TestOpenLoopRateMatchesConfig(t *testing.T) {
	cfg := Config{
		Clients: 500, Model: ModelOpen, Seed: 11,
		Domains: testDomains(100), Duration: 400 * time.Second,
	}
	eng, err := New(cfg, testClock(), &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	want := float64(cfg.Clients) * OpenRate * cfg.Duration.Seconds() // 20 000
	got := float64(sum.Queries)
	// Poisson σ ≈ sqrt(20 000) ≈ 141; allow 5σ.
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("open-loop run issued %.0f queries, want %.0f ± %.0f", got, want, 5*math.Sqrt(want))
	}
}
