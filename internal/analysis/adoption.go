package analysis

import (
	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/tranco"
)

// OverlappingSets computes the phase-1 and phase-2 overlapping domain sets
// (domains present in the stored Tranco list on every scanned day of the
// phase, split at the 2023-08-01 source change).
func OverlappingSets(store *dataset.Store) (phase1, phase2 map[string]bool) {
	var lists1, lists2 [][]string
	for _, day := range store.Days("apex") {
		list, ok := store.TrancoListFor(day)
		if !ok {
			continue
		}
		if day.Before(tranco.SourceChangeDate) {
			lists1 = append(lists1, list)
		} else {
			lists2 = append(lists2, list)
		}
	}
	toSet := func(domains []string) map[string]bool {
		out := make(map[string]bool, len(domains))
		for _, d := range domains {
			out[d] = true
		}
		return out
	}
	return toSet(tranco.Overlapping(lists1)), toSet(tranco.Overlapping(lists2))
}

// AdoptionResult holds the Fig 2 series.
type AdoptionResult struct {
	// Dynamic is the adoption percentage over the full daily list
	// (Fig 2a), per kind.
	DynamicApex, DynamicWWW Series
	// Overlap is the adoption percentage within the phase's overlapping
	// set (Fig 2b).
	OverlapApex, OverlapWWW Series
	// Phase1/Phase2 are the overlapping set sizes.
	Phase1Size, Phase2Size int
}

// Adoption reproduces Fig 2: HTTPS adoption rates for dynamic and
// overlapping domains, apex and www.
func Adoption(store *dataset.Store) *AdoptionResult {
	phase1, phase2 := OverlappingSets(store)
	res := &AdoptionResult{
		DynamicApex: Series{Name: "dynamic-apex%"},
		DynamicWWW:  Series{Name: "dynamic-www%"},
		OverlapApex: Series{Name: "overlap-apex%"},
		OverlapWWW:  Series{Name: "overlap-www%"},
		Phase1Size:  len(phase1),
		Phase2Size:  len(phase2),
	}
	for apex := range (population{kind: "apex"}).days(store) {
		list, ok := store.TrancoListFor(apex.date)
		www, okW := population{kind: "www"}.on(store, apex.date)
		if !ok || !okW {
			continue
		}
		overlap := population{kind: "apex", overlap: phase1}
		if !apex.date.Before(tranco.SourceChangeDate) {
			overlap.overlap = phase2
		}
		var dynApex, dynWWW, ovApex, ovWWW, ovTotal int
		for _, entry := range list {
			name := dnswire.CanonicalName(entry)
			inOverlap := overlap.member(name)
			if inOverlap {
				ovTotal++
			}
			if _, on := apex.lookup(name); on {
				dynApex++
				if inOverlap {
					ovApex++
				}
			}
			if _, on := www.lookup("www." + name); on {
				dynWWW++
				if inOverlap {
					ovWWW++
				}
			}
		}
		res.DynamicApex.Points = append(res.DynamicApex.Points, Point{apex.date, pct(dynApex, len(list))})
		res.DynamicWWW.Points = append(res.DynamicWWW.Points, Point{apex.date, pct(dynWWW, len(list))})
		res.OverlapApex.Points = append(res.OverlapApex.Points, Point{apex.date, pct(ovApex, ovTotal)})
		res.OverlapWWW.Points = append(res.OverlapWWW.Points, Point{apex.date, pct(ovWWW, ovTotal)})
	}
	return res
}

// Tables renders Fig 2 as two tables.
func (r *AdoptionResult) Tables() []*Table {
	return []*Table{
		SeriesTable("Fig 2a: HTTPS adoption, dynamic Tranco list", 24, r.DynamicApex, r.DynamicWWW),
		SeriesTable("Fig 2b: HTTPS adoption, overlapping domains", 24, r.OverlapApex, r.OverlapWWW),
	}
}
