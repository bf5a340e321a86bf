package analysis

import (
	"fmt"

	"repro/internal/dataset"
)

// AnomalyReport renders the campaign's per-day anomaly captures as a
// table: the stable SLO verdict (winner-side exchange counts,
// availability, stale ratio, objectives violated) plus a digest of the
// event evidence — total client error, negative and stale events, the
// day's most frequent of them, and how many distinct tail-trace
// projections were stored. An empty table means the campaign ran without
// CampaignConfig.AnomalyCapture (or no day tripped the trigger).
func AnomalyReport(store *dataset.Store) *Table {
	t := &Table{
		Title: "Anomaly captures: per-day SLO verdicts and flight-recorder evidence",
		Columns: []string{"date", "exchanges", "errors", "servfail", "stale",
			"avail", "stale-ratio", "viol", "events", "traces", "top event"},
	}
	for _, day := range store.AnomalyDays() {
		capt, ok := store.AnomalyFor(day)
		if !ok {
			continue
		}
		var total, topCount uint64
		top := "-"
		for _, ev := range capt.Events {
			total += ev.Count
			if ev.Count > topCount {
				top, topCount = ev.Key, ev.Count
			}
		}
		if topCount > 0 {
			top = fmt.Sprintf("%s ×%d", top, topCount)
		}
		t.Rows = append(t.Rows, []string{
			day.Format("2006-01-02"),
			fmt.Sprintf("%d", capt.Exchanges),
			fmt.Sprintf("%d", capt.Errors),
			fmt.Sprintf("%d", capt.ServFails),
			fmt.Sprintf("%d", capt.StaleServed),
			fmt.Sprintf("%.4f", capt.Availability),
			fmt.Sprintf("%.4f", capt.StaleRatio),
			fmt.Sprintf("%d", capt.Violations),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", len(capt.Traces)),
			top,
		})
	}
	return t
}
