package analysis

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
)

// isCFDefaultConfig reports whether an observation's records match
// Cloudflare's untouched proxied default (§4.3.1): one ServiceMode record,
// target ".", alpn h2+h3 (h3-29 tolerated pre-sunset), both IP hints.
func isCFDefaultConfig(obs *dataset.Observation) bool {
	if len(obs.HTTPS) != 1 {
		return false
	}
	r := obs.HTTPS[0]
	if r.Priority != 1 || r.Target != "." {
		return false
	}
	alpn := map[string]bool{}
	for _, p := range r.ALPN {
		alpn[p] = true
	}
	if !alpn["h2"] || !alpn["h3"] {
		return false
	}
	for p := range alpn {
		if p != "h2" && p != "h3" && p != "h3-29" {
			return false
		}
	}
	return len(r.V4Hints) > 0 && len(r.V6Hints) > 0 && !r.HasPort
}

// DefaultVsCustomResult is Table 4.
type DefaultVsCustomResult struct {
	DefaultMean, CustomMean float64
	Days                    int
}

// DefaultVsCustom reproduces Table 4: among apex domains on Cloudflare NS,
// the share with the default vs customised HTTPS configuration.
func DefaultVsCustom(store *dataset.Store, overlap map[string]bool) *DefaultVsCustomResult {
	var def []float64
	for d := range (population{kind: "apex", ns: true, overlap: overlap}).days(store) {
		n, total := 0, 0
		for _, obs := range d.adopters() {
			if _, class := cloudflareNS(obs, d.ns); class != cfFull {
				continue
			}
			total++
			if isCFDefaultConfig(obs) {
				n++
			}
		}
		if total > 0 {
			def = append(def, pct(n, total))
		}
	}
	res := &DefaultVsCustomResult{Days: len(def)}
	res.DefaultMean, _ = meanStd(def)
	res.CustomMean = 100 - res.DefaultMean
	return res
}

// Table renders Table 4.
func (r *DefaultVsCustomResult) Table(label string) *Table {
	return &Table{
		Title:   "Table 4 (" + label + "): Cloudflare-NS domains, default vs customized HTTPS config",
		Columns: []string{"configuration", "share"},
		Rows: [][]string{
			{"Default", fmtPct(r.DefaultMean)},
			{"Customized", fmtPct(r.CustomMean)},
		},
	}
}

// ProviderParamsResult is one provider column of Table 5.
type ProviderParamsResult struct {
	Org            string
	Domains        int
	ServiceModePct float64 // SvcPriority > 0
	AliasModePct   float64
	SelfTargetPct  float64 // TargetName "."
	AltTargetPct   float64
	NoALPNPct      float64
	NoV4HintPct    float64
	NoV6HintPct    float64
}

// ProviderParams reproduces Table 5 for one provider org.
func ProviderParams(store *dataset.Store, org string) *ProviderParamsResult {
	res := &ProviderParamsResult{Org: org}
	var svc, alias, self, alt, noALPN, noV4, noV6, records int
	seen := map[string]bool{}
	for d := range (population{kind: "apex", ns: true}).days(store) {
		for name, obs := range d.adopters() {
			match := false
			for _, o := range nsOrgs(obs, d.ns) {
				if strings.EqualFold(o, org) {
					match = true
				}
			}
			if !match {
				continue
			}
			seen[name] = true
			for _, r := range obs.HTTPS {
				records++
				if r.AliasMode() {
					alias++
				} else {
					svc++
				}
				if r.Target == "." {
					self++
				} else {
					alt++
				}
				if len(r.ALPN) == 0 {
					noALPN++
				}
				if len(r.V4Hints) == 0 {
					noV4++
				}
				if len(r.V6Hints) == 0 {
					noV6++
				}
			}
		}
	}
	res.Domains = len(seen)
	res.ServiceModePct = pct(svc, records)
	res.AliasModePct = pct(alias, records)
	res.SelfTargetPct = pct(self, records)
	res.AltTargetPct = pct(alt, records)
	res.NoALPNPct = pct(noALPN, records)
	res.NoV4HintPct = pct(noV4, records)
	res.NoV6HintPct = pct(noV6, records)
	return res
}

// Table5 renders the Google/GoDaddy comparison.
func Table5(google, godaddy *ProviderParamsResult) *Table {
	return &Table{
		Title:   "Table 5: common HTTPS configurations, Google vs GoDaddy name servers",
		Columns: []string{"field", google.Org + " NS", godaddy.Org + " NS"},
		Rows: [][]string{
			{"SvcPriority=1 (ServiceMode)", fmtPct(google.ServiceModePct), fmtPct(godaddy.ServiceModePct)},
			{"SvcPriority=0 (AliasMode)", fmtPct(google.AliasModePct), fmtPct(godaddy.AliasModePct)},
			{"TargetName \".\"", fmtPct(google.SelfTargetPct), fmtPct(godaddy.SelfTargetPct)},
			{"TargetName alternative", fmtPct(google.AltTargetPct), fmtPct(godaddy.AltTargetPct)},
			{"alpn empty", fmtPct(google.NoALPNPct), fmtPct(godaddy.NoALPNPct)},
			{"ipv4hint empty", fmtPct(google.NoV4HintPct), fmtPct(godaddy.NoV4HintPct)},
			{"ipv6hint empty", fmtPct(google.NoV6HintPct), fmtPct(godaddy.NoV6HintPct)},
		},
	}
}

// SvcParamsResult covers §4.3.3/§E.1.
type SvcParamsResult struct {
	ServiceModePct float64 // daily mean share of records with priority 1+
	// AliasSelfTarget counts AliasMode records with "." target (invalid
	// aliasing).
	AliasSelfTarget int
	// ServiceNoParams counts ServiceMode domains without any SvcParams.
	ServiceNoParams int
	// PriorityListDomains counts domains with >2 distinct priorities.
	PriorityListDomains int
}

// SvcParams reproduces the §4.3.3 parameter overview for a kind.
func SvcParams(store *dataset.Store, kind string) *SvcParamsResult {
	res := &SvcParamsResult{}
	var svcShares []float64
	aliasSelf := map[string]bool{}
	noParams := map[string]bool{}
	prioList := map[string]bool{}
	for d := range (population{kind: kind}).days(store) {
		svc, records := 0, 0
		for name, obs := range d.adopters() {
			prios := map[uint16]bool{}
			for _, r := range obs.HTTPS {
				records++
				if !r.AliasMode() {
					svc++
					if len(r.ALPN) == 0 && !r.HasPort && len(r.V4Hints) == 0 &&
						len(r.V6Hints) == 0 && !r.HasECH && !r.NoDefALPN {
						noParams[name] = true
					}
				} else if r.Target == "." {
					aliasSelf[name] = true
				}
				prios[r.Priority] = true
			}
			if len(prios) > 2 {
				prioList[name] = true
			}
		}
		if records > 0 {
			svcShares = append(svcShares, pct(svc, records))
		}
	}
	res.ServiceModePct, _ = meanStd(svcShares)
	res.AliasSelfTarget = len(aliasSelf)
	res.ServiceNoParams = len(noParams)
	res.PriorityListDomains = len(prioList)
	return res
}

// Table renders the SvcParams overview.
func (r *SvcParamsResult) Table(kind string) *Table {
	return &Table{
		Title:   "§4.3.3 SvcPriority/TargetName overview (" + kind + ")",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"ServiceMode record share (daily mean)", fmtPct(r.ServiceModePct)},
			{"AliasMode records with \".\" target (domains)", strconv.Itoa(r.AliasSelfTarget)},
			{"ServiceMode without SvcParams (domains)", strconv.Itoa(r.ServiceNoParams)},
			{"multi-priority (port-per-priority) domains", strconv.Itoa(r.PriorityListDomains)},
		},
	}
}

// ALPNResult is Table 8: protocol shares among domains with HTTPS records.
type ALPNResult struct {
	Kind string
	// Share maps protocol → daily-mean share of domains advertising it.
	Share map[string]float64
	// H3Draft29Before/After split the h3-29 share at its sunset date.
	H3Draft29Before, H3Draft29After float64
	NoALPNPct                       float64
}

// ALPN reproduces Table 8 (+§4.3.4) for a kind, optionally restricted to
// the overlapping set.
func ALPN(store *dataset.Store, kind string, overlap map[string]bool, sunset time.Time) *ALPNResult {
	res := &ALPNResult{Kind: kind, Share: map[string]float64{}}
	// First pass: per-day counts.
	type dayCount struct {
		day      time.Time
		perProto map[string]int
		none     int
		total    int
	}
	var days []dayCount
	allProtos := map[string]bool{}
	for d := range (population{kind: kind, overlap: overlap}).days(store) {
		dc := dayCount{day: d.date, perProto: map[string]int{}}
		for _, obs := range d.adopters() {
			dc.total++
			protos := map[string]bool{}
			any := false
			for _, r := range obs.HTTPS {
				for _, p := range r.ALPN {
					protos[p] = true
					any = true
				}
			}
			if !any {
				dc.none++
			}
			for p := range protos {
				dc.perProto[p]++
				allProtos[p] = true
			}
		}
		if dc.total > 0 {
			days = append(days, dc)
		}
	}
	// Second pass: daily-mean shares with explicit zeros for days a
	// protocol was absent (so sunsets pull the mean down correctly).
	counts := map[string][]float64{}
	var before29, after29, noALPN []float64
	for _, dc := range days {
		for p := range allProtos {
			counts[p] = append(counts[p], pct(dc.perProto[p], dc.total))
		}
		noALPN = append(noALPN, pct(dc.none, dc.total))
		v := pct(dc.perProto["h3-29"], dc.total)
		if dc.day.Before(sunset) {
			before29 = append(before29, v)
		} else {
			after29 = append(after29, v)
		}
	}
	for p, vals := range counts {
		res.Share[p], _ = meanStd(vals)
	}
	res.H3Draft29Before, _ = meanStd(before29)
	res.H3Draft29After, _ = meanStd(after29)
	res.NoALPNPct, _ = meanStd(noALPN)
	return res
}

// Table renders Table 8.
func (r *ALPNResult) Table() *Table {
	t := &Table{
		Title:   "Table 8: alpn protocols among domains with HTTPS RR (" + r.Kind + ", daily mean)",
		Columns: []string{"protocol", "share"},
	}
	protos := make([]string, 0, len(r.Share))
	for p := range r.Share {
		protos = append(protos, p)
	}
	sort.Slice(protos, func(i, j int) bool { return r.Share[protos[i]] > r.Share[protos[j]] })
	for _, p := range protos {
		t.Rows = append(t.Rows, []string{p, fmtPct(r.Share[p])})
	}
	t.Rows = append(t.Rows,
		[]string{"h3-29 (before sunset)", fmtPct(r.H3Draft29Before)},
		[]string{"h3-29 (after sunset)", fmtPct(r.H3Draft29After)},
		[]string{"no alpn parameter", fmtPct(r.NoALPNPct)},
	)
	return t
}
