package analysis

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
)

// ECHDeploymentResult is Fig 13: the share of HTTPS adopters publishing the
// ech parameter over time.
type ECHDeploymentResult struct {
	Apex Series
	WWW  Series
	// DropDate is the first scanned day with (near-)zero ECH after a
	// non-zero period — Cloudflare's shutdown.
	DropDate time.Time
	// PeakApexPct is the highest apex share observed.
	PeakApexPct float64
}

// ECHDeployment reproduces Fig 13.
func ECHDeployment(store *dataset.Store, overlap map[string]bool) *ECHDeploymentResult {
	res := &ECHDeploymentResult{
		Apex: population{kind: "apex", overlap: overlap}.share(store, "ech-apex%", nil, (*dataset.Observation).HasECH),
		WWW:  population{kind: "www", overlap: overlap}.share(store, "ech-www%", nil, (*dataset.Observation).HasECH),
	}
	prevNonzero := false
	for _, p := range res.Apex.Points {
		if p.Value > res.PeakApexPct {
			res.PeakApexPct = p.Value
		}
		if prevNonzero && p.Value < 1 && res.DropDate.IsZero() {
			res.DropDate = p.Date
		}
		if p.Value >= 1 {
			prevNonzero = true
		}
	}
	return res
}

// Table renders Fig 13.
func (r *ECHDeploymentResult) Table() *Table {
	return SeriesTable("Fig 13: share of HTTPS-adopting domains publishing ECH", 24, r.Apex, r.WWW)
}

// ECHRotationResult is the Fig 4 / §4.4.2 hourly-scan analysis.
type ECHRotationResult struct {
	// DistinctConfigs counts unique ECH keys observed.
	DistinctConfigs int
	// PublicNames lists client-facing names seen (the paper saw exactly
	// one: cloudflare-ech.com).
	PublicNames []string
	// ConfigLifetimesHours is the observed lifetime (consecutive hourly
	// scans) per distinct key.
	ConfigLifetimesHours []int
	// MeanDurationHours is the mean per-domain config duration (Fig 4:
	// 1.26h).
	MeanDurationHours float64
	// DurationHistogram buckets per-domain average durations.
	DurationHistogram map[string]int
}

// ECHRotation reproduces Fig 4 from the hourly observation stream.
func ECHRotation(store *dataset.Store) *ECHRotationResult {
	obs := store.ECHObservations()
	res := &ECHRotationResult{DurationHistogram: map[string]int{}}
	if len(obs) == 0 {
		return res
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Time.Before(obs[j].Time) })

	// Distinct keys and their first/last observation.
	type keySpan struct{ first, last time.Time }
	keys := map[uint64]*keySpan{}
	names := map[string]bool{}
	for _, o := range obs {
		names[o.PublicName] = true
		ks := keys[o.KeyHash]
		if ks == nil {
			keys[o.KeyHash] = &keySpan{first: o.Time, last: o.Time}
		} else {
			if o.Time.After(ks.last) {
				ks.last = o.Time
			}
		}
	}
	res.DistinctConfigs = len(keys)
	for n := range names {
		res.PublicNames = append(res.PublicNames, n)
	}
	sort.Strings(res.PublicNames)
	for _, ks := range keys {
		res.ConfigLifetimesHours = append(res.ConfigLifetimesHours,
			int(ks.last.Sub(ks.first).Hours())+1)
	}
	sort.Ints(res.ConfigLifetimesHours)

	// Per-domain average config duration: group the domain's hourly
	// stream into runs of identical keys.
	type domainRun struct {
		last     uint64
		runStart time.Time
		lastTime time.Time
		durs     []float64
	}
	domains := map[string]*domainRun{}
	for _, o := range obs {
		dr := domains[o.Domain]
		if dr == nil {
			domains[o.Domain] = &domainRun{last: o.KeyHash, runStart: o.Time, lastTime: o.Time}
			continue
		}
		if o.KeyHash != dr.last {
			dr.durs = append(dr.durs, dr.lastTime.Sub(dr.runStart).Hours()+1)
			dr.last = o.KeyHash
			dr.runStart = o.Time
		}
		dr.lastTime = o.Time
	}
	var total float64
	var count int
	for _, dr := range domains {
		if len(dr.durs) == 0 {
			continue
		}
		var sum float64
		for _, d := range dr.durs {
			sum += d
		}
		avg := sum / float64(len(dr.durs))
		total += avg
		count++
		switch {
		case avg < 1.1:
			res.DurationHistogram["<1.1h"]++
		case avg < 1.2:
			res.DurationHistogram["1.1-1.2h"]++
		case avg < 1.3:
			res.DurationHistogram["1.2-1.3h"]++
		case avg < 1.4:
			res.DurationHistogram["1.3-1.4h"]++
		default:
			res.DurationHistogram[">=1.4h"]++
		}
	}
	if count > 0 {
		res.MeanDurationHours = total / float64(count)
	}
	return res
}

// Table renders Fig 4.
func (r *ECHRotationResult) Table() *Table {
	t := &Table{
		Title:   "Fig 4 / §4.4.2: ECH key rotation from hourly scans",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"distinct ECH configs", strconv.Itoa(r.DistinctConfigs)},
			{"client-facing names", strings.Join(r.PublicNames, ",")},
			{"mean config duration (hours)", fmtFloat(r.MeanDurationHours)},
		},
	}
	for _, b := range []string{"<1.1h", "1.1-1.2h", "1.2-1.3h", "1.3-1.4h", ">=1.4h"} {
		t.Rows = append(t.Rows, []string{"domains with avg duration " + b, strconv.Itoa(r.DurationHistogram[b])})
	}
	return t
}
