// Package tranco simulates the Tranco top-sites list the paper scans daily:
// a ranked domain population with a stable popular core, a churning tail,
// and the 2023-08-01 source-change event that reshuffled the list
// composition. Absolute size is configurable; the ratios (core fraction,
// churn pool) are fixed at values that reproduce the paper's
// overlapping-domain counts (63.5% overlap before the change, 68.4% after).
package tranco

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// SourceChangeDate is the day Tranco swapped Alexa for CrUX+Radar feeds.
var SourceChangeDate = time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC)

// The list's composition, calibrated to the paper's overlapping-domain
// counts.
const (
	// coreFraction1 is the fraction of the list that is stable before the
	// source change (paper: 634,810 / 1M ≈ 0.635).
	coreFraction1 = 0.635
	// coreFraction2 is the stable fraction after the source change
	// (paper: 684,292 / 1M ≈ 0.684).
	coreFraction2 = 0.684
	// tailPoolFactor sizes the churning candidate pool relative to the
	// tail slots (>1 so daily membership varies).
	tailPoolFactor = 2.5
)

// Simulator produces the daily ranked list.
type Simulator struct {
	// size is the daily list length (the paper's is 1M); seed drives all
	// randomness.
	size int
	seed int64
	// core1/core2 are the stable cores before/after the source change.
	core1, core2 []string
	// tailPool is the shared churn pool.
	tailPool []string
	// universe is every domain name that can ever appear.
	universe []string
	// wcore1, wcore2 and wtailPool spell core1, core2 and tailPool
	// canonically, "www.<name>.", index for index.
	wcore1, wcore2, wtailPool []string
}

// tlds weights the synthetic TLD mix.
var tlds = []string{"com", "com", "com", "com", "net", "org", "io", "de", "co", "ru", "cn", "jp", "uk", "fr"}

// NewSimulator builds a population whose daily list holds size domains.
// Domain names are synthetic but unique and stable across runs for a given
// seed.
func NewSimulator(size int, seed int64) *Simulator {
	rng := rand.New(rand.NewSource(seed))
	core1N := int(float64(size) * coreFraction1)
	core2N := int(float64(size) * coreFraction2)
	tailSlots := size - core1N
	if s2 := size - core2N; s2 > tailSlots {
		tailSlots = s2
	}
	poolN := int(float64(tailSlots) * tailPoolFactor)

	// The second core keeps most of the first (the source change replaced
	// a minority of stable domains) plus some promoted tail names.
	keep := int(float64(core1N) * 0.9)
	if keep > core2N {
		keep = core2N
	}
	total := core1N + (core2N - keep) + poolN
	names, www := make([]string, total), make([]string, total)
	for i := range names {
		www[i] = fmt.Sprintf("www.site%06d.%s.", i, tlds[rng.Intn(len(tlds))])
		names[i] = www[i][4 : len(www[i])-1]
	}
	s := &Simulator{size: size, seed: seed, universe: names}
	s.core1, s.wcore1 = names[:core1N], www[:core1N]
	s.core2 = append(append([]string(nil), s.core1[:keep]...), names[core1N:core1N+(core2N-keep)]...)
	s.wcore2 = append(append([]string(nil), s.wcore1[:keep]...), www[core1N:core1N+(core2N-keep)]...)
	s.tailPool, s.wtailPool = names[core1N+(core2N-keep):], www[core1N+(core2N-keep):]
	return s
}

// Universe returns every domain that can ever appear in the list.
func (s *Simulator) Universe() []string {
	return append([]string(nil), s.universe...)
}

// IsCore reports whether the domain belongs to either stable core (it is
// present every day of at least one study phase).
func (s *Simulator) IsCore(domain string) bool {
	for _, d := range s.core1 {
		if d == domain {
			return true
		}
	}
	for _, d := range s.core2 {
		if d == domain {
			return true
		}
	}
	return false
}

// CoreSet returns the union of both cores as a set, for bulk membership
// checks.
func (s *Simulator) CoreSet() map[string]bool {
	out := make(map[string]bool, len(s.core1)+len(s.core2))
	for _, d := range s.core1 {
		out[d] = true
	}
	for _, d := range s.core2 {
		out[d] = true
	}
	return out
}

// dayNumber gives a stable integer per calendar day.
func dayNumber(date time.Time) int64 {
	return date.UTC().Truncate(24*time.Hour).Unix() / 86400
}

// ListFor returns the ranked list for the given date: core domains occupy
// the top ranks (with mild daily shuffling), the remainder is a daily
// sample of the tail pool.
func (s *Simulator) ListFor(date time.Time) []string {
	list, _ := s.CanonListFor(date)
	return list
}

// CanonListFor returns ListFor(date) and, index for index, each name's
// canonical www spelling "www.<name>.", whose [4:] is its canonical apex.
func (s *Simulator) CanonListFor(date time.Time) (list, www []string) {
	core, wcore := s.core1, s.wcore1
	if !date.Before(SourceChangeDate) {
		core, wcore = s.core2, s.wcore2
	}
	tailSlots := s.size - len(core)
	rng := rand.New(rand.NewSource(s.seed ^ dayNumber(date)*0x9e3779b9))

	// Daily tail sample: choose tailSlots names from the pool.
	list, www = append(make([]string, 0, s.size), core...), append(make([]string, 0, s.size), wcore...)
	for _, idx := range rng.Perm(len(s.tailPool))[:tailSlots] {
		list, www = append(list, s.tailPool[idx]), append(www, s.wtailPool[idx])
	}
	// Mild rank jitter: swap adjacent windows so ranks are not frozen, but
	// core stays broadly above tail (Fig 8's distribution shape).
	for i := 0; i+1 < len(list); i += 2 {
		if rng.Intn(4) == 0 {
			list[i], list[i+1] = list[i+1], list[i]
			www[i], www[i+1] = www[i+1], www[i]
		}
	}
	return list, www
}

// Overlapping returns the set of domains present on every sampled day.
func Overlapping(lists [][]string) []string {
	if len(lists) == 0 {
		return nil
	}
	count := map[string]int{}
	for _, l := range lists {
		seen := map[string]bool{}
		for _, d := range l {
			if !seen[d] {
				seen[d] = true
				count[d]++
			}
		}
	}
	var out []string
	for d, c := range count {
		if c == len(lists) {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}
