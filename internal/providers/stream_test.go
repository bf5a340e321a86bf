package providers

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream draws n values from got, seeded with seed, and from
// rand.NewSource(seed), cycling through Int63, Uint64, Intn and Float64 so
// every Rand method the world uses reads the source, and fails at the
// first value that differs.
func sameStream(t *testing.T, got *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got.Seed(seed)
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 4 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			bound := 1 + i*7919%1000
			g, w = got.Intn(bound), want.Intn(bound)
		case 3:
			g, w = got.Float64(), want.Float64()
		}
		if g != w {
			t.Fatalf("seed %d, draw %d: got %v, want %v", seed, i+1, g, w)
		}
	}
}

// sameRegister checks every register word the source computes for seed
// against math/rand's outputs: output k ≤ rngTap is word rngLen−rngTap−k
// plus word rngLen−k, and output k up to rngLen−rngTap is word
// rngLen−rngTap−k plus output k−rngTap. The second half pins words 0 to
// rngLen−2·rngTap−1, which the source itself never reads, so a typo
// anywhere in rngCooked fails here.
func sameRegister(t *testing.T, seed int64) {
	t.Helper()
	src := rand.NewSource(seed).(rand.Source64)
	var s streamSource
	s.Seed(seed)
	out := make([]int64, rngLen-rngTap+1) // out[k] is output k
	for k := 1; k < len(out); k++ {
		out[k] = int64(src.Uint64())
		var sum int64
		if k <= rngTap {
			sum = s.word(rngLen-rngTap-k) + s.word(rngLen-k)
		} else {
			sum = s.word(rngLen-rngTap-k) + out[k-rngTap]
		}
		if sum != out[k] {
			t.Fatalf("seed %d: output %d is %d, the source's register gives %d", seed, k, out[k], sum)
		}
	}
}

// TestStreamSourceMatchesMathRand: the O(1)-seeded source gives
// math/rand's exact stream on both sides of the rngTap handover, for the
// seeds math/rand treats specially and for random ones, when one source is
// re-seeded for each (as buildDomains re-seeds it per domain).
func TestStreamSourceMatchesMathRand(t *testing.T) {
	const draws = 700 // past rngTap, on to the full generator
	got := rand.New(new(streamSource))
	edges := []int64{0, 1, -1, 89482311, lcgMod, -lcgMod, lcgMod - 1, lcgMod + 1, math.MinInt64, math.MaxInt64}
	for _, seed := range edges {
		sameRegister(t, seed)
		sameStream(t, got, seed, draws)
	}
	seeds := rand.New(rand.NewSource(26))
	for i := 0; i < 3000; i++ {
		sameStream(t, got, int64(seeds.Uint64()), draws)
	}
}

// FuzzStreamSource compares the source with rand.NewSource for any seed and
// any stream length, the source re-seeded after a first stream as
// buildDomains re-seeds it.
func FuzzStreamSource(f *testing.F) {
	f.Add(int64(0), uint16(rngTap))
	f.Add(int64(-1), uint16(rngTap+1))
	f.Add(int64(lcgMod), uint16(700))
	f.Add(int64(math.MinInt64), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := rand.New(new(streamSource))
		sameStream(t, got, seed^1, rngTap+2)
		sameStream(t, got, seed, int(draws))
	})
}
