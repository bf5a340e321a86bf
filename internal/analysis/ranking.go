package analysis

import (
	"sort"
	"strconv"

	"repro/internal/dataset"
)

// RankStats summarises a rank distribution (Figs 8–9).
type RankStats struct {
	Label  string
	Count  int
	Mean   float64
	Median int
	P25    int
	P75    int
}

func rankStats(label string, ranks []int) RankStats {
	rs := RankStats{Label: label, Count: len(ranks)}
	if len(ranks) == 0 {
		return rs
	}
	sort.Ints(ranks)
	total := 0
	for _, r := range ranks {
		total += r
	}
	rs.Mean = float64(total) / float64(len(ranks))
	rs.Median = ranks[len(ranks)/2]
	rs.P25 = ranks[len(ranks)/4]
	rs.P75 = ranks[3*len(ranks)/4]
	return rs
}

// RankDistributions reproduces Fig 8: average-rank distributions of
// overlapping vs non-overlapping apex domains over the phase-1 window.
func RankDistributions(store *dataset.Store, phase1 map[string]bool) []RankStats {
	// Average rank per domain over the stored days.
	sum := map[string]int{}
	count := map[string]int{}
	for _, day := range store.Days("apex") {
		list, ok := store.TrancoListFor(day)
		if !ok {
			continue
		}
		for i, d := range list {
			sum[d] += i + 1
			count[d]++
		}
	}
	var overlapRanks, otherRanks []int
	for d, c := range count {
		avg := sum[d] / c
		if phase1[d] {
			overlapRanks = append(overlapRanks, avg)
		} else {
			otherRanks = append(otherRanks, avg)
		}
	}
	return []RankStats{
		rankStats("overlapping", overlapRanks),
		rankStats("non-overlapping", otherRanks),
	}
}

// NonCFRankings reproduces Fig 9: the rank distribution of apex domains
// that adopt HTTPS with no Cloudflare name server, Table 3's population.
func NonCFRankings(store *dataset.Store) RankStats {
	sum := map[string]int{}
	count := map[string]int{}
	for d := range (population{kind: "apex", ns: true}).days(store) {
		for name, obs := range d.adopters() {
			if _, class := cloudflareNS(obs, d.ns); class != cfNone {
				continue
			}
			sum[name] += obs.Rank
			count[name]++
		}
	}
	var ranks []int
	for d, c := range count {
		ranks = append(ranks, sum[d]/c)
	}
	return rankStats("non-CF HTTPS adopters", ranks)
}

// RankTable renders rank distributions.
func RankTable(title string, stats ...RankStats) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"population", "count", "mean rank", "p25", "median", "p75"},
	}
	for _, s := range stats {
		t.Rows = append(t.Rows, []string{
			s.Label, strconv.Itoa(s.Count), fmtFloat(s.Mean), strconv.Itoa(s.P25), strconv.Itoa(s.Median), strconv.Itoa(s.P75)})
	}
	return t
}
