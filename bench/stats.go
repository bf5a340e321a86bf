package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even); 0
// for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentiles are the candidates highestPercentile picks from: each
// percentile with the whole-number share of a sample that lies beyond it
// (one in `oneIn`).
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// highestPercentile returns the highest of tailPercentiles that still has
// at least ten samples beyond it in a sample of n, and 50 when even the
// 75th does not (n < 40): a tail read off fewer than ten samples is one
// outlier's value, not a percentile.
func highestPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n >= 10*c.oneIn {
			return c.p
		}
	}
	return 50
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
