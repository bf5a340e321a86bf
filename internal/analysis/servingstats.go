package analysis

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/dataset"
)

// StaleECHDay is one row of the §4.4.2 staleness/ECH correlation: a scan
// day's serving-layer stale exposure joined against the ECH
// inconsistency observed in that day's hourly scans.
type StaleECHDay struct {
	Date time.Time
	// HasServing marks days with a recorded dataset.ServingSnapshot
	// (campaigns without an encrypted-DNS fleet record none).
	HasServing bool
	// StaleServed and UpstreamFailures are the day's RFC 8767 lifecycle
	// counters; StaleWindowSec is the fleet's configured stale window.
	StaleServed      uint64
	UpstreamFailures uint64
	StaleWindowSec   int64
	// ECHDomains counts distinct domains in the day's hourly ECH scans;
	// InconsistentDomains of them served two or more distinct ECH
	// configs within the day — the inconsistency window a stale-serving
	// frontend widens, because a cached config outlives its rotation.
	// MaxConfigs is the largest per-domain distinct-config count.
	ECHDomains          int
	InconsistentDomains int
	MaxConfigs          int
}

// StaleECHCorrelationResult joins the per-day serving snapshots against
// the hourly ECH observation stream — the §4.4.2 correlation table: do
// the days the fleet served stale answers line up with the days domains
// exposed inconsistent ECH configs?
type StaleECHCorrelationResult struct {
	Days []StaleECHDay
	// TotalStaleServed and TotalInconsistent sum the two sides over the
	// window; CoincidentDays counts days where both were non-zero — the
	// direct correlation signal.
	TotalStaleServed  uint64
	TotalInconsistent int
	CoincidentDays    int
}

// StaleECHCorrelation computes the §4.4.2 staleness/ECH correlation from
// a campaign store. Days appear when either side has data: serving
// snapshots come from daily fleet campaigns, ECH observations from the
// hourly rotation experiment; days covered by both are where the
// correlation is measurable.
func StaleECHCorrelation(store *dataset.Store) *StaleECHCorrelationResult {
	byDay := map[time.Time]*StaleECHDay{}
	day := func(t time.Time) time.Time { return t.UTC().Truncate(24 * time.Hour) }
	get := func(t time.Time) *StaleECHDay {
		d := byDay[day(t)]
		if d == nil {
			d = &StaleECHDay{Date: day(t)}
			byDay[day(t)] = d
		}
		return d
	}

	for _, date := range store.ServingDays() {
		snap, ok := store.ServingFor(date)
		if !ok {
			continue
		}
		d := get(date)
		d.HasServing = true
		d.StaleServed = snap.StaleServed
		d.UpstreamFailures = snap.UpstreamFailures
		d.StaleWindowSec = snap.StaleWindowSec
	}

	// Group the hourly stream into per-day, per-domain distinct-config
	// counts.
	configs := map[time.Time]map[string]map[uint64]bool{}
	for _, o := range store.ECHObservations() {
		d := day(o.Time)
		if configs[d] == nil {
			configs[d] = map[string]map[uint64]bool{}
		}
		if configs[d][o.Domain] == nil {
			configs[d][o.Domain] = map[uint64]bool{}
		}
		configs[d][o.Domain][o.KeyHash] = true
	}
	for date, domains := range configs {
		d := get(date)
		d.ECHDomains = len(domains)
		for _, keys := range domains {
			if len(keys) > d.MaxConfigs {
				d.MaxConfigs = len(keys)
			}
			if len(keys) >= 2 {
				d.InconsistentDomains++
			}
		}
	}

	res := &StaleECHCorrelationResult{}
	for _, d := range byDay {
		res.Days = append(res.Days, *d)
	}
	sort.Slice(res.Days, func(i, j int) bool { return res.Days[i].Date.Before(res.Days[j].Date) })
	for _, d := range res.Days {
		res.TotalStaleServed += d.StaleServed
		res.TotalInconsistent += d.InconsistentDomains
		if d.StaleServed > 0 && d.InconsistentDomains > 0 {
			res.CoincidentDays++
		}
	}
	return res
}

// Table renders the correlation, one row per day plus a totals row.
func (r *StaleECHCorrelationResult) Table() *Table {
	t := &Table{
		Title:   "§4.4.2: serve-stale exposure vs ECH inconsistency windows",
		Columns: []string{"day", "stale-served", "upstream-fail", "ech-domains", "inconsistent", "max-configs"},
	}
	if len(r.Days) == 0 {
		t.Rows = append(t.Rows, []string{"(no serving snapshots or ECH observations in store)", "-", "-", "-", "-", "-"})
		return t
	}
	for _, d := range r.Days {
		stale, fail := "-", "-"
		if d.HasServing {
			stale, fail = strconv.Itoa(int(d.StaleServed)), strconv.Itoa(int(d.UpstreamFailures))
		}
		ech, inc, maxc := "-", "-", "-"
		if d.ECHDomains > 0 {
			ech, inc, maxc = strconv.Itoa(d.ECHDomains), strconv.Itoa(d.InconsistentDomains), strconv.Itoa(d.MaxConfigs)
		}
		t.Rows = append(t.Rows, []string{
			d.Date.Format("2006-01-02"), stale, fail, ech, inc, maxc,
		})
	}
	t.Rows = append(t.Rows, []string{
		"total", strconv.Itoa(int(r.TotalStaleServed)), "-", "-", strconv.Itoa(r.TotalInconsistent),
		"coincident days: " + strconv.Itoa(r.CoincidentDays),
	})
	return t
}
