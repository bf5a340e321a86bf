// Package analysis computes every table and figure of the paper's
// evaluation from a collected dataset.Store: adoption trends (Fig 2),
// name-server breakdowns (Tables 2–3, Fig 3), configuration analyses
// (Tables 4–5, §4.3), IP-hint consistency (Figs 11–12), ECH deployment and
// rotation (Figs 4, 13), and DNSSEC (Fig 5, Table 9, Fig 14).
//
// Each judgment about a domain is made in one place:
//   - population is the rule every per-day figure counts by: which days
//     count (the kind's scanned days, or the NS-measurement days), that
//     only observations holding HTTPS records count, and membership of an
//     overlapping set.
//   - svcb.SameAddrSet decides whether IP hints agree with the A or AAAA
//     records (Figs 11–12; the scanner's §4.3.5 probes use it too).
//   - dataset.Observation.HasECH decides ECH publication (Figs 13–14).
//   - cloudflareNS puts an adopter's name servers in Table 2's full, none
//     or partial Cloudflare class; Tables 3–4 and Figs 3 and 9 select by it.
//   - classifyIntermittency gives each domain's §4.2.3 class, which
//     Intermittency and IntermittencyMinObs aggregate.
package analysis
