package main

import (
	"io"
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := make([]float64, 101) // 0..100: the p-th percentile is p
	for i := range xs {
		xs[100-i] = float64(i)
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := percentile(xs, p); got != p {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestHighestPercentile(t *testing.T) {
	// "The highest percentile with at least ten samples beyond it."
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10→11 = %v, want +0.1", got)
	}
	if got := worsening(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10→11 = %v, want -0.1", got)
	}
}

// Two runs of the same code must fail the comparison when a median is 0 or
// missing: the relative difference is NaN or infinite, not "within bound".
func TestCompareRunsRejectsZeroMedian(t *testing.T) {
	bounds := map[string]declaredMetric{}
	full := resultLine{Metrics: map[string]metricValue{}}
	for _, spec := range endToEnd {
		bounds[spec.name] = declaredMetric{Name: spec.name, Better: "lower", Bound: 0.1}
		full.Metrics[spec.name] = metricValue{Value: 1}
	}
	same, zeroed := map[string]resultLine{}, map[string]resultLine{}
	for _, sh := range shapes {
		same[sh.name] = full
		zeroed[sh.name] = resultLine{Metrics: map[string]metricValue{}}
	}
	if err := compareRuns(same, same, bounds, io.Discard); err != nil {
		t.Errorf("identical runs rejected: %v", err)
	}
	if err := compareRuns(zeroed, zeroed, bounds, io.Discard); err == nil {
		t.Error("runs whose medians are all 0 accepted")
	}
	if err := compareRuns(zeroed, same, bounds, io.Discard); err == nil {
		t.Error("a run against a zero baseline accepted")
	}
}
