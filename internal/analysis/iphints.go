package analysis

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/svcb"
)

// HintUsageResult is Fig 11: hint usage and A/AAAA consistency over time.
type HintUsageResult struct {
	Kind    string
	V4Usage Series // % of adopters publishing ipv4hint
	V6Usage Series
	V4Match Series // % of hint publishers whose hints equal the A set
	V6Match Series
}

// HintUsage reproduces Fig 11 for a kind.
func HintUsage(store *dataset.Store, kind string) *HintUsageResult {
	p := population{kind: kind}
	has4 := func(obs *dataset.Observation) bool { return len(obs.V4Hints()) > 0 }
	has6 := func(obs *dataset.Observation) bool { return len(obs.V6Hints()) > 0 }
	return &HintUsageResult{
		Kind:    kind,
		V4Usage: p.share(store, "ipv4hint%", nil, has4),
		V6Usage: p.share(store, "ipv6hint%", nil, has6),
		V4Match: p.share(store, "v4-match%", has4, func(obs *dataset.Observation) bool {
			return svcb.SameAddrSet(obs.V4Hints(), obs.A)
		}),
		V6Match: p.share(store, "v6-match%", has6, func(obs *dataset.Observation) bool {
			return svcb.SameAddrSet(obs.V6Hints(), obs.AAAA)
		}),
	}
}

// Tables renders Fig 11.
func (r *HintUsageResult) Tables() []*Table {
	return []*Table{
		SeriesTable("Fig 11 ("+r.Kind+"): IP hint usage and consistency", 20,
			r.V4Usage, r.V4Match, r.V6Usage, r.V6Match),
	}
}

// MismatchDurationsResult is Fig 12 plus the §4.3.5 counts.
type MismatchDurationsResult struct {
	Kind string
	// Episodes holds per-domain mismatch episode lengths in scan steps.
	Durations []int
	MeanDays  float64
	// DistinctDomains ever mismatched.
	DistinctDomains int
	// PersistentDomains were mismatched on every scanned day they
	// appeared with hints.
	PersistentDomains int
	// StepDays converts run lengths to days.
	StepDays int
}

// MismatchDurations reproduces Fig 12: consecutive-day runs of hint/A
// disagreement per domain.
func MismatchDurations(store *dataset.Store, kind string) *MismatchDurationsResult {
	res := &MismatchDurationsResult{Kind: kind, StepDays: stepOf(store.Days(kind))}
	type state struct {
		run        int
		mismatches int
		observed   int
	}
	states := map[string]*state{}
	flush := func(st *state) {
		if st.run > 0 {
			res.Durations = append(res.Durations, st.run)
			st.run = 0
		}
	}
	for d := range (population{kind: kind}).days(store) {
		seen := map[string]bool{}
		for name, obs := range d.adopters() {
			h4 := obs.V4Hints()
			if len(h4) == 0 {
				continue
			}
			seen[name] = true
			st := states[name]
			if st == nil {
				st = &state{}
				states[name] = st
			}
			st.observed++
			if !svcb.SameAddrSet(h4, obs.A) {
				st.run++
				st.mismatches++
			} else {
				flush(st)
			}
		}
		for name, st := range states {
			if !seen[name] {
				flush(st)
			}
		}
	}
	var totalRuns, totalLen int
	for _, st := range states {
		flush(st)
	}
	for _, d := range res.Durations {
		totalRuns++
		totalLen += d
	}
	for _, st := range states {
		if st.mismatches > 0 {
			res.DistinctDomains++
			if st.mismatches == st.observed && st.observed > 1 {
				res.PersistentDomains++
			}
		}
	}
	if totalRuns > 0 {
		res.MeanDays = float64(totalLen*res.StepDays) / float64(totalRuns)
	}
	sort.Ints(res.Durations)
	return res
}

func stepOf(days []time.Time) int {
	if len(days) < 2 {
		return 1
	}
	return int(days[1].Sub(days[0]).Hours() / 24)
}

// Table renders Fig 12 as a duration histogram.
func (r *MismatchDurationsResult) Table() *Table {
	buckets := map[string]int{}
	order := []string{"1-3d", "4-7d", "8-14d", "15-30d", ">30d"}
	for _, runLen := range r.Durations {
		d := runLen * r.StepDays
		switch {
		case d <= 3:
			buckets["1-3d"]++
		case d <= 7:
			buckets["4-7d"]++
		case d <= 14:
			buckets["8-14d"]++
		case d <= 30:
			buckets["15-30d"]++
		default:
			buckets[">30d"]++
		}
	}
	t := &Table{
		Title:   "Fig 12 (" + r.Kind + "): duration of IP hint / A mismatches",
		Columns: []string{"duration", "episodes"},
	}
	for _, b := range order {
		t.Rows = append(t.Rows, []string{b, strconv.Itoa(buckets[b])})
	}
	t.Rows = append(t.Rows,
		[]string{"mean (days)", fmtFloat(r.MeanDays)},
		[]string{"distinct domains", strconv.Itoa(r.DistinctDomains)},
		[]string{"persistent domains", strconv.Itoa(r.PersistentDomains)},
	)
	return t
}

// ConnectivityResult is the §4.3.5 probing experiment summary.
type ConnectivityResult struct {
	// Occurrences counts (domain, day) mismatch probes.
	Occurrences int
	// DistinctDomains with at least one mismatch probe.
	DistinctDomains int
	// AnyUnreachable: domains with ≥1 unreachable address in a probe.
	AnyUnreachable int
	// HintOnly: domains only reachable via the hint address.
	HintOnly int
	// AOnly: domains only reachable via the A address.
	AOnly int
}

// Connectivity aggregates the TLS probe results.
func Connectivity(store *dataset.Store) *ConnectivityResult {
	res := &ConnectivityResult{}
	type domainAgg struct{ hintFail, aFail, probes int }
	agg := map[string]*domainAgg{}
	for _, p := range store.Probes() {
		if !p.Mismatch {
			continue
		}
		res.Occurrences++
		da := agg[p.Domain]
		if da == nil {
			da = &domainAgg{}
			agg[p.Domain] = da
		}
		da.probes++
		if !p.HintOK {
			da.hintFail++
		}
		if !p.AOK {
			da.aFail++
		}
	}
	res.DistinctDomains = len(agg)
	for _, da := range agg {
		if da.hintFail > 0 || da.aFail > 0 {
			res.AnyUnreachable++
			switch {
			case da.aFail > 0 && da.hintFail == 0:
				res.HintOnly++
			case da.hintFail > 0 && da.aFail == 0:
				res.AOnly++
			}
		}
	}
	return res
}

// Table renders the connectivity experiment.
func (r *ConnectivityResult) Table() *Table {
	return &Table{
		Title:   "§4.3.5: connectivity of domains with mismatched IP hints",
		Columns: []string{"metric", "count"},
		Rows: [][]string{
			{"mismatch occurrences (domain-days)", strconv.Itoa(r.Occurrences)},
			{"distinct domains", strconv.Itoa(r.DistinctDomains)},
			{"domains with ≥1 unreachable address", strconv.Itoa(r.AnyUnreachable)},
			{"  reachable only via IP hint", strconv.Itoa(r.HintOnly)},
			{"  reachable only via A record", strconv.Itoa(r.AOnly)},
		},
	}
}
