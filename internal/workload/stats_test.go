package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
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
// average to the configured mean — the inter-arrival law behind both
// arrival models.
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
		Clients: 1_000, Model: ModelOpen, Seed: 11,
		Domains: testDomains(100), Duration: 400 * time.Second,
		OpenRate: 0.05, StubTTL: time.Second,
	}
	eng, err := New(cfg, testClock(), &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	want := float64(cfg.Clients) * cfg.OpenRate * cfg.Duration.Seconds() // 20 000
	got := float64(sum.Queries)
	// Poisson σ ≈ sqrt(20 000) ≈ 141; allow 5σ.
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("open-loop run issued %.0f queries, want %.0f ± %.0f", got, want, 5*math.Sqrt(want))
	}
}

// TestClosedLoopThinkTime: a closed-loop run's per-client rate is
// 1/Think, so totals must land near Clients·Duration/Think.
func TestClosedLoopThinkTime(t *testing.T) {
	cfg := Config{
		Clients: 1_000, Model: ModelClosed, Seed: 13,
		Domains: testDomains(100), Duration: 400 * time.Second,
		Think: 20 * time.Second, StubTTL: time.Second,
	}
	eng, err := New(cfg, testClock(), &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	want := float64(cfg.Clients) * cfg.Duration.Seconds() / cfg.Think.Seconds() // 20 000
	got := float64(sum.Queries)
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("closed-loop run issued %.0f queries, want %.0f ± %.0f", got, want, 5*math.Sqrt(want))
	}
}

// hourTarget counts exchanges by the hour of day its clock reads.
type hourTarget struct {
	fakeTarget
	clock  *simnet.Clock
	byHour [24]int
}

func (h *hourTarget) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	h.byHour[h.clock.Now().Hour()]++
	return h.fakeTarget.Exchange(q)
}

// TestDiurnalPeakLandsOnSchedule: with a strong diurnal curve peaking
// at 20h, the busiest hour of a 24 h run must sit in the scheduled
// evening, and the peak/trough ratio must reflect the configured
// amplitude. Hourly load is the exchanges a target sees in each clock
// hour; with a 1 s stub TTL nearly every query is one.
func TestDiurnalPeakLandsOnSchedule(t *testing.T) {
	cfg := Config{
		Clients: 300, Model: ModelOpen, Seed: 19,
		Domains: testDomains(100), Duration: 24 * time.Hour,
		OpenRate: 0.01, StubTTL: time.Second,
		Diurnal: Diurnal{Amplitude: 0.8, Peak: 20 * time.Hour},
	}
	// Clock starts at midnight UTC, so clock hour = hour of day.
	clock := testClock()
	tgt := &hourTarget{clock: clock}
	eng, err := New(cfg, clock, tgt)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var peakHour, peak int
	trough := math.MaxInt
	for h, n := range tgt.byHour {
		if n > peak {
			// Name the bucket by the hour it ends at.
			peak, peakHour = n, h+1
		}
		trough = min(trough, n)
	}
	// The 20h peak should land in the 20:00 or 21:00 bucket; allow one
	// bucket of sampling noise either side.
	if peakHour < 19 || peakHour > 22 {
		t.Errorf("busiest hour bucket ends at %dh, want within [19h, 22h] around the 20h peak", peakHour)
	}
	// factor spans [1−A, 1+A] = [0.2, 1.8]: a 9× ideal ratio. Demand at
	// least 3× so a flat curve can't pass.
	if trough <= 0 || float64(peak)/float64(trough) < 3 {
		t.Errorf("peak/trough ratio %.2f (%d/%d exchanges an hour), want ≥ 3 for amplitude 0.8",
			float64(peak)/float64(trough), peak, trough)
	}
}
