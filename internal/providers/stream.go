package providers

import "math/rand"

// The shape of math/rand's generator: an additive lagged Fibonacci
// register of rngLen words with tap rngTap, seeded from the Lehmer LCG
// x ← 48271·x mod lcgMod.
const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
)

// lcgPow[n] is 48271^n mod lcgMod, so the LCG's n-th value from seed s is
// s·lcgPow[n] mod lcgMod. Seeding reads values 21 to 3·rngLen+20.
var lcgPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * 48271 % lcgMod
	}
	return p
}()

// streamSource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s and whose Seed costs O(1) instead of 1 841 LCG
// steps into a 4.9 KB register. Output k ≤ rngTap of a freshly seeded
// math/rand generator adds register words rngLen−rngTap−k and rngLen−k,
// neither written yet, and each unwritten word is a closed form of the
// seed; so those outputs are computed from the seed alone. From output
// rngTap+1 on the stream continues in a real generator seeded the same
// way and advanced rngTap outputs. Seed must be called before the first
// draw.
type streamSource struct {
	seed  uint64        // reduced as math/rand reduces it: in [1, lcgMod)
	drawn int           // outputs since the last Seed
	rest  rand.Source64 // the full generator, used past output rngTap
}

func (s *streamSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.drawn = uint64(seed), 0
}

// word is register word i as math/rand's Seed leaves it.
func (s *streamSource) word(i int) int64 {
	n := 21 + 3*i
	return int64(s.seed*lcgPow[n]%lcgMod)<<40 ^
		int64(s.seed*lcgPow[n+1]%lcgMod)<<20 ^
		int64(s.seed*lcgPow[n+2]%lcgMod) ^
		rngCooked[i]
}

func (s *streamSource) Uint64() uint64 {
	s.drawn++
	switch {
	case s.drawn <= rngTap:
		return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
	case s.drawn == rngTap+1:
		if s.rest == nil {
			s.rest = rand.NewSource(0).(rand.Source64)
		}
		s.rest.Seed(int64(s.seed))
		for range rngTap {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

func (s *streamSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
