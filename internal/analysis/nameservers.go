package analysis

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/dnswire"
)

// CloudflareOrg is the organisation name used for Cloudflare attribution.
const CloudflareOrg = "Cloudflare"

// nsOrgs returns the set of operator orgs behind a domain observation's NS
// hosts, using the day's NS snapshot for attribution.
func nsOrgs(obs *dataset.Observation, nsSnap *dataset.NSSnapshot) []string {
	seen := map[string]bool{}
	var orgs []string
	for _, host := range obs.NS {
		host = dnswire.CanonicalName(host)
		org := ""
		if nsSnap != nil {
			if nso, ok := nsSnap.Servers[host]; ok {
				org = nso.Org
			}
		}
		if org == "" {
			// Fallback attribution from the host name itself (the
			// paper's manual-review step).
			org = orgFromHost(host)
		}
		if org != "" && !seen[org] {
			seen[org] = true
			orgs = append(orgs, org)
		}
	}
	return orgs
}

func orgFromHost(host string) string {
	parts := dnswire.SplitLabels(host)
	if len(parts) < 2 {
		return ""
	}
	infra := parts[len(parts)-2] // e.g. "cloudflare-dns-sim"
	name, _, _ := strings.Cut(infra, "-dns-sim")
	if name == "" {
		return ""
	}
	// Restore capitalisation conventions loosely: exact org strings come
	// from WHOIS normally; this fallback is best-effort.
	return name
}

func isCloudflareOrg(org string) bool {
	return strings.EqualFold(org, CloudflareOrg) || strings.EqualFold(org, "cloudflare")
}

// nsClass is Table 2's split of an adopter by the operators of its name
// servers.
type nsClass uint8

const (
	nsUnseen  nsClass = iota // no NS records observed: outside Table 2
	cfNone                   // no Cloudflare name server (Table 3, Figs 3 and 9)
	cfFull                   // Cloudflare name servers only (Table 4)
	cfPartial                // Cloudflare and other operators together
)

// cloudflareNS attributes an observation's name servers to operators with
// the day's NS scan and classifies the operator set.
func cloudflareNS(obs *dataset.Observation, nsSnap *dataset.NSSnapshot) (orgs []string, class nsClass) {
	if len(obs.NS) == 0 {
		return nil, nsUnseen
	}
	orgs = nsOrgs(obs, nsSnap)
	cf := 0
	for _, org := range orgs {
		if isCloudflareOrg(org) {
			cf++
		}
	}
	switch {
	case cf == 0:
		return orgs, cfNone
	case cf == len(orgs):
		return orgs, cfFull
	}
	return orgs, cfPartial
}

// NSCategoriesResult is Table 2: full/none/partial Cloudflare NS shares.
type NSCategoriesResult struct {
	FullMean, FullStd       float64
	NoneMean, NoneStd       float64
	PartialMean, PartialStd float64
	Days                    int
}

// NSCategories reproduces Table 2 over the NS measurement days. overlap,
// when non-nil, restricts to the overlapping set (Table 2's second column
// pair); nil gives the dynamic column.
func NSCategories(store *dataset.Store, overlap map[string]bool) *NSCategoriesResult {
	var full, none, partial []float64
	for d := range (population{kind: "apex", ns: true, overlap: overlap}).days(store) {
		var f, n, p, total int
		for _, obs := range d.adopters() {
			switch _, class := cloudflareNS(obs, d.ns); class {
			case cfFull:
				f++
			case cfNone:
				n++
			case cfPartial:
				p++
			default:
				continue
			}
			total++
		}
		if total == 0 {
			continue
		}
		full = append(full, pct(f, total))
		none = append(none, pct(n, total))
		partial = append(partial, pct(p, total))
	}
	res := &NSCategoriesResult{Days: len(full)}
	res.FullMean, res.FullStd = meanStd(full)
	res.NoneMean, res.NoneStd = meanStd(none)
	res.PartialMean, res.PartialStd = meanStd(partial)
	return res
}

// Table renders Table 2.
func (r *NSCategoriesResult) Table(label string) *Table {
	f := func(m, s float64) []string {
		return []string{fmtPct(m), fmtPct(s)}
	}
	t := &Table{
		Title:   "Table 2 (" + label + "): Cloudflare NS categories among apex domains with HTTPS",
		Columns: []string{"category", "mean", "std"},
	}
	t.Rows = append(t.Rows, append([]string{"Full Cloudflare NS"}, f(r.FullMean, r.FullStd)...))
	t.Rows = append(t.Rows, append([]string{"None Cloudflare NS"}, f(r.NoneMean, r.NoneStd)...))
	t.Rows = append(t.Rows, append([]string{"Partial Cloudflare NS"}, f(r.PartialMean, r.PartialStd)...))
	return t
}

// NonCFProvidersResult holds Table 3 + Fig 3.
type NonCFProvidersResult struct {
	// TopProviders ranks non-CF orgs by distinct HTTPS-adopting domains
	// ever seen.
	TopProviders []ProviderCount
	// DistinctTotal is the number of distinct non-CF providers ever seen.
	DistinctTotal int
	// DailyDistinct is the Fig 3 series.
	DailyDistinct Series
}

// ProviderCount is one Table 3 row.
type ProviderCount struct {
	Org     string
	Domains int
}

// NonCFProviders reproduces Table 3 and Fig 3 over the "None Cloudflare
// NS" adopters: no Cloudflare server in the NS set (partial mixes belong to
// Table 2's partial row).
func NonCFProviders(store *dataset.Store, overlap map[string]bool) *NonCFProvidersResult {
	domainsPerOrg := map[string]map[string]bool{}
	res := &NonCFProvidersResult{DailyDistinct: Series{Name: "distinct-nonCF-providers"}}
	for d := range (population{kind: "apex", ns: true, overlap: overlap}).days(store) {
		today := map[string]bool{}
		for name, obs := range d.adopters() {
			orgs, class := cloudflareNS(obs, d.ns)
			if class != cfNone {
				continue
			}
			for _, org := range orgs {
				today[org] = true
				if domainsPerOrg[org] == nil {
					domainsPerOrg[org] = map[string]bool{}
				}
				domainsPerOrg[org][name] = true
			}
		}
		res.DailyDistinct.Points = append(res.DailyDistinct.Points,
			Point{d.date, float64(len(today))})
	}
	for org, domains := range domainsPerOrg {
		res.TopProviders = append(res.TopProviders, ProviderCount{Org: org, Domains: len(domains)})
	}
	sort.Slice(res.TopProviders, func(i, j int) bool {
		if res.TopProviders[i].Domains != res.TopProviders[j].Domains {
			return res.TopProviders[i].Domains > res.TopProviders[j].Domains
		}
		return res.TopProviders[i].Org < res.TopProviders[j].Org
	})
	res.DistinctTotal = len(res.TopProviders)
	return res
}

// Table renders Table 3 (top n rows).
func (r *NonCFProvidersResult) Table(n int) *Table {
	t := &Table{
		Title:   "Table 3: top non-Cloudflare DNS providers (distinct HTTPS domains)",
		Columns: []string{"provider", "#domains"},
	}
	for i, pc := range r.TopProviders {
		if i == n {
			break
		}
		t.Rows = append(t.Rows, []string{pc.Org, strconv.Itoa(pc.Domains)})
	}
	return t
}

// IntermittencyResult summarises §4.2.3.
type IntermittencyResult struct {
	// Intermittent counts apex domains that deactivated previously
	// published HTTPS records at least once within the NS window.
	Intermittent int
	// SameNS of those kept an identical NS set across all active days.
	SameNS int
	// SameNSAllCF of the SameNS group used exclusively Cloudflare NS.
	SameNSAllCF int
	// NSChanged deactivated alongside an NS set change.
	NSChanged int
	// LostNS became entirely unresolvable (no NS) while deactivated.
	LostNS int

	// The Weighted* counterparts scale each domain's contribution by its
	// in-list coverage (observed days / NS-window days): a Tranco-churny
	// domain seen on 3 of 30 days supplies 3/30 of a count rather than a
	// full one, so sparse histories — whose classification rests on a
	// handful of samples — no longer weigh as much as dense ones.
	WeightedIntermittent float64
	WeightedSameNS       float64
	WeightedSameNSAllCF  float64
	WeightedNSChanged    float64
	WeightedLostNS       float64

	// MinObservations is the classification gate the result was computed
	// with: domains observed on fewer in-list days are not classified at
	// all. SparseSkipped counts domains that showed a deactivation but
	// fell under the gate — the histories too thin to call a trend.
	MinObservations int
	SparseSkipped   int
}

// DefaultIntermittencyMinObs is the observation floor Intermittency
// applies: two observed days is the bare minimum for an on→off
// transition to exist at all.
const DefaultIntermittencyMinObs = 2

// Intermittency reproduces the §4.2.3 analysis over the NS window with
// the default observation floor.
func Intermittency(store *dataset.Store) *IntermittencyResult {
	return IntermittencyMinObs(store, DefaultIntermittencyMinObs)
}

// IntermittencyClass is a domain's §4.2.3 class.
type IntermittencyClass uint8

// §4.2.3 classes.
const (
	// IntermitSameNS kept one NS operator set across its active days.
	IntermitSameNS IntermittencyClass = iota + 1
	// IntermitNSChanged deactivated alongside an NS set change.
	IntermitNSChanged
	// IntermitLostNS failed to resolve at all on some in-list day.
	IntermitLostNS
)

// IntermittentDomain is one apex domain's §4.2.3 verdict.
type IntermittentDomain struct {
	Class IntermittencyClass
	// AllCF marks an IntermitSameNS domain whose NS set is Cloudflare's
	// alone.
	AllCF bool
	// Observed counts the domain's in-list days in the NS window.
	Observed int
}

// classifyIntermittency gives the §4.2.3 verdict on every apex domain that
// deactivated previously published HTTPS records — an adopter on one of
// its in-list days and not on the next — at least once in the NS window,
// keyed by canonical name. A domain's history is compressed to the days it
// was in the list: on a day it fell out, the missing observation is churn,
// not deactivation. A domain that failed to resolve on one of those days is
// IntermitLostNS, else one that showed two NS operator sets on its active
// days is IntermitNSChanged, else it is IntermitSameNS.
func classifyIntermittency(store *dataset.Store) map[string]IntermittentDomain {
	type history struct {
		on, deactivated bool
		lost, changed   bool
		observed        int
		set             string // the first active day's NS operator set
		allCF           bool
	}
	hist := map[string]*history{}
	for d := range (population{kind: "apex", ns: true}).days(store) {
		list, _ := store.TrancoListFor(d.date)
		for _, entry := range list {
			name := dnswire.CanonicalName(entry)
			h := hist[name]
			if h == nil {
				h = &history{}
				hist[name] = h
			}
			obs, on := d.lookup(name)
			if h.on && !on {
				h.deactivated = true
			}
			h.on = on
			h.observed++
			if !on {
				// An unresolvable day (e.g. every NS record gone).
				h.lost = h.lost || obs != nil && obs.Err != ""
				continue
			}
			orgs, class := cloudflareNS(obs, d.ns)
			if len(orgs) == 0 {
				continue
			}
			sort.Strings(orgs)
			set := strings.Join(orgs, ",")
			if h.set == "" {
				h.set, h.allCF = set, class == cfFull
			} else if set != h.set {
				h.changed = true
			}
		}
	}
	out := map[string]IntermittentDomain{}
	for name, h := range hist {
		if !h.deactivated {
			continue
		}
		v := IntermittentDomain{Class: IntermitSameNS, AllCF: h.allCF, Observed: h.observed}
		switch {
		case h.lost:
			v = IntermittentDomain{Class: IntermitLostNS, Observed: h.observed}
		case h.changed:
			v = IntermittentDomain{Class: IntermitNSChanged, Observed: h.observed}
		}
		out[name] = v
	}
	return out
}

// IntermittencyMinObs is Intermittency with an explicit classification
// gate: a domain must have been observed on at least minObs in-list days
// before its deactivations count. Coverage weighting (the Weighted*
// fields) softens sparse histories; the gate removes them — a domain seen
// on 2 of 30 days with one on→off flip is indistinguishable from Tranco
// churn noise, and a higher floor keeps it out of the §4.2.3 counts
// entirely (reported in SparseSkipped instead).
func IntermittencyMinObs(store *dataset.Store, minObs int) *IntermittencyResult {
	minObs = max(minObs, DefaultIntermittencyMinObs)
	res := &IntermittencyResult{MinObservations: minObs}
	// Each bucket sums its domains' observed days; weighting divides
	// by the NS window once, so the sums do not depend on map order.
	var all, same, sameCF, changed, lost int
	for _, v := range classifyIntermittency(store) {
		if v.Observed < minObs {
			res.SparseSkipped++
			continue
		}
		res.Intermittent++
		all += v.Observed
		switch v.Class {
		case IntermitLostNS:
			res.LostNS++
			lost += v.Observed
		case IntermitNSChanged:
			res.NSChanged++
			changed += v.Observed
		default:
			res.SameNS++
			same += v.Observed
			if v.AllCF {
				res.SameNSAllCF++
				sameCF += v.Observed
			}
		}
	}
	if window := float64(len(store.NSDays())); window > 0 {
		res.WeightedIntermittent = float64(all) / window
		res.WeightedSameNS = float64(same) / window
		res.WeightedSameNSAllCF = float64(sameCF) / window
		res.WeightedNSChanged = float64(changed) / window
		res.WeightedLostNS = float64(lost) / window
	}
	return res
}

// Table renders the intermittency summary; the weighted column scales
// each domain by its in-list coverage of the NS window. With a gate
// above the structural floor, the skipped sparse histories get a row of
// their own so the excluded population is visible.
func (r *IntermittencyResult) Table() *Table {
	t := &Table{
		Title:   "§4.2.3: intermittent HTTPS record activation",
		Columns: []string{"metric", "count", "weighted"},
		Rows: [][]string{
			{"intermittent apex domains", strconv.Itoa(r.Intermittent), fmtFloat(r.WeightedIntermittent)},
			{"  same NS set throughout", strconv.Itoa(r.SameNS), fmtFloat(r.WeightedSameNS)},
			{"    of which exclusively Cloudflare", strconv.Itoa(r.SameNSAllCF), fmtFloat(r.WeightedSameNSAllCF)},
			{"  NS set changed", strconv.Itoa(r.NSChanged), fmtFloat(r.WeightedNSChanged)},
			{"  transient NS loss", strconv.Itoa(r.LostNS), fmtFloat(r.WeightedLostNS)},
		},
	}
	if r.MinObservations > DefaultIntermittencyMinObs {
		t.Rows = append(t.Rows, []string{
			"  skipped (observed days < " + strconv.Itoa(r.MinObservations) + ")",
			strconv.Itoa(r.SparseSkipped), "-"})
	}
	return t
}
