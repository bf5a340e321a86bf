package analysis

import (
	"strconv"

	"repro/internal/dataset"
)

// SignedResult is Fig 5: RRSIG presence and AD validation of HTTPS records
// over time, for one population (dynamic or overlapping).
type SignedResult struct {
	SignedApex Series
	SignedWWW  Series
	ValidApex  Series
	ValidWWW   Series
}

// Signed reproduces Fig 5.
func Signed(store *dataset.Store, overlap map[string]bool) *SignedResult {
	apex, www := population{kind: "apex", overlap: overlap}, population{kind: "www", overlap: overlap}
	return &SignedResult{
		SignedApex: apex.share(store, "signed-apex%", nil, signed),
		SignedWWW:  www.share(store, "signed-www%", nil, signed),
		ValidApex:  apex.share(store, "ad-apex%", nil, validated),
		ValidWWW:   www.share(store, "ad-www%", nil, validated),
	}
}

func signed(obs *dataset.Observation) bool    { return obs.Signed }
func validated(obs *dataset.Observation) bool { return obs.Signed && obs.AD }

// Tables renders Fig 5.
func (r *SignedResult) Tables(label string) []*Table {
	return []*Table{
		SeriesTable("Fig 5 ("+label+"): signed (RRSIG) and validated (AD) HTTPS records", 24,
			r.SignedApex, r.ValidApex, r.SignedWWW, r.ValidWWW),
	}
}

// CensusResult is Table 9: the one-shot DNSSEC validation census.
type CensusResult struct {
	// Rows per category.
	WithoutHTTPS CensusRow
	WithHTTPS    CensusRow
	CFNS         CensusRow
	NonCFNS      CensusRow
}

// CensusRow aggregates signed/secure/insecure counts.
type CensusRow struct {
	Signed   int
	Secure   int
	Insecure int
	Bogus    int
}

func (c *CensusRow) add(res string) {
	c.Signed++
	switch res {
	case "secure":
		c.Secure++
	case "insecure":
		c.Insecure++
	case "bogus":
		c.Bogus++
	}
}

// Census reproduces Table 9.
func Census(store *dataset.Store) *CensusResult {
	out := &CensusResult{}
	for _, row := range store.Validation() {
		if !row.Signed {
			continue
		}
		if row.HasHTTPS {
			out.WithHTTPS.add(row.Result)
			if row.CFNS {
				out.CFNS.add(row.Result)
			} else {
				out.NonCFNS.add(row.Result)
			}
		} else {
			out.WithoutHTTPS.add(row.Result)
		}
	}
	return out
}

// Table renders Table 9.
func (r *CensusResult) Table() *Table {
	row := func(name string, c CensusRow) []string {
		return []string{name, strconv.Itoa(c.Signed),
			strconv.Itoa(c.Secure) + " (" + fmtPct(pct(c.Secure, c.Signed)) + ")",
			strconv.Itoa(c.Insecure) + " (" + fmtPct(pct(c.Insecure, c.Signed)) + ")"}
	}
	return &Table{
		Title:   "Table 9: DNSSEC validation of signed domains (one-shot census)",
		Columns: []string{"category", "signed", "secure", "insecure"},
		Rows: [][]string{
			row("without HTTPS RR", r.WithoutHTTPS),
			row("with HTTPS RR", r.WithHTTPS),
			row("  - Cloudflare NS", r.CFNS),
			row("  - non-Cloudflare NS", r.NonCFNS),
		},
	}
}

// SignedECHResult is Fig 14: ECH domains with signed/validated records.
type SignedECHResult struct {
	SignedPct Series // % of (HTTPS ∧ ECH) domains whose records are signed
	ValidPct  Series
}

// SignedECH reproduces Fig 14 for apex domains.
func SignedECH(store *dataset.Store, overlap map[string]bool) *SignedECHResult {
	apex := population{kind: "apex", overlap: overlap}
	return &SignedECHResult{
		SignedPct: apex.share(store, "ech-signed%", (*dataset.Observation).HasECH, signed),
		ValidPct:  apex.share(store, "ech-ad%", (*dataset.Observation).HasECH, validated),
	}
}

// Table renders Fig 14.
func (r *SignedECHResult) Table() *Table {
	return SeriesTable("Fig 14: DNSSEC among ECH-publishing domains", 24, r.SignedPct, r.ValidPct)
}
