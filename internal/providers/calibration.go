package providers

import "time"

// Study period landmarks (paper §4.1 and §4.4).
var (
	// StudyStart is the first scan day (May 8th, 2023).
	StudyStart = time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC)
	// StudyEnd is the last scan day (March 31st, 2024).
	StudyEnd = time.Date(2024, 3, 31, 0, 0, 0, 0, time.UTC)
	// ECHDisableDate is when Cloudflare disabled ECH globally (§4.4.1).
	ECHDisableDate = time.Date(2023, 10, 5, 0, 0, 0, 0, time.UTC)
	// H3Draft29SunsetDate is when Cloudflare stopped advertising h3-29 (§E.2).
	H3Draft29SunsetDate = time.Date(2023, 5, 31, 0, 0, 0, 0, time.UTC)
	// HintFixDate is when the bulk IP-hint mismatches dropped (§E.3,
	// June 19th, 2023).
	HintFixDate = time.Date(2023, 6, 19, 0, 0, 0, 0, time.UTC)
	// NSScanStart is when NS/SOA collection began (Table 1).
	NSScanStart = time.Date(2023, 8, 16, 0, 0, 0, 0, time.UTC)
)

// The world model's generative rates, calibrated to the paper. The
// fractions are typed so that sums and ratios of them round as float64
// arithmetic does.
const (
	// --- adoption (Fig 2) ---

	// coreAdoptRate is the fraction of stable (overlapping) domains with
	// HTTPS records throughout (Fig 2b: ~21–26% stable band; we use the
	// apex level).
	coreAdoptRate float64 = 0.21
	// tailAdoptAtStart/AtEnd give the tail-domain adoption probability at
	// the study boundaries; the daily tail resample turns this into the
	// rising dynamic-Tranco trend of Fig 2a (20% → 27% overall).
	tailAdoptAtStart float64 = 0.18
	tailAdoptAtEnd   float64 = 0.375
	// wwwGivenApex is P(www has HTTPS | apex has HTTPS) (Fig 2: www sits
	// a few points below apex).
	wwwGivenApex float64 = 0.85

	// --- name servers (Table 2, Table 3, Fig 3) ---

	// cloudflareShare is the fraction of HTTPS adopters on full
	// Cloudflare NS (Table 2: 99.89%).
	cloudflareShare float64 = 0.9989
	// nonCFProviderTotal is the number of distinct non-CF providers ever
	// seen (§4.2.2: 244), scaled.
	nonCFProviderTotal = 244
	// minNonCFAdopters floors the absolute non-Cloudflare adopter
	// population so the Table 3 / Fig 3 analyses stay populated at small
	// simulation scales. The true 0.11% share emerges once
	// 0.0011 × adopters exceeds this floor (≈ size 90k).
	minNonCFAdopters = 30

	// --- Cloudflare configuration (Table 4, §4.3.1) ---

	// cfDefaultShare is the fraction of CF domains with the untouched
	// proxied default HTTPS record (Table 4: 79.96% dynamic).
	cfDefaultShare float64 = 0.7996

	// --- ECH (Fig 13, §4.4) ---

	// echShareOfAdopters is the fraction of HTTPS adopters with the ech
	// parameter before the shutdown (§4.4.1: ~70% of apex). All are CF
	// default-config (free-plan proxied) domains.
	echShareOfAdopters float64 = 0.70
	// nonCFECHApex is the absolute count of apexes publishing ECH via
	// non-CF name servers (§4.4.1: 106), scaled.
	nonCFECHApex = 106
	// echRotationPeriod is the key-rotation interval the hourly scans
	// measure (Fig 4: 1.1–1.4h, mean 1.26h).
	echRotationPeriod = 76 * time.Minute
	// echRetention is how long superseded ECH keys still decrypt.
	echRetention = 3 * time.Hour

	// --- DNSSEC (Fig 5, Table 9) ---

	// signedShareCF is P(signed | HTTPS adopter on Cloudflare NS)
	// (Table 9: 16,784 of ~210k CF adopters ≈ 8%).
	signedShareCF float64 = 0.08
	// cfInsecureShare is P(missing DS | signed, CF NS) (Table 9: 49.5%).
	cfInsecureShare float64 = 0.495
	// signedShareNonCF is P(signed | HTTPS adopter, non-CF NS)
	// (Table 9: 64 of ~231 ≈ 28%).
	signedShareNonCF float64 = 0.28
	// nonCFInsecureShare is P(missing DS | signed, non-CF) (14.1%).
	nonCFInsecureShare float64 = 0.141
	// signedShareNoHTTPS is P(signed | no HTTPS records) (Table 9:
	// 46,850 of ~780k ≈ 6%).
	signedShareNoHTTPS float64 = 0.059
	// noHTTPSInsecureShare is P(missing DS | signed, no HTTPS) (23.7%).
	noHTTPSInsecureShare float64 = 0.237

	// --- intermittency (§4.2.3) ---

	// intermittentShare is the fraction of adopters with on/off HTTPS
	// episodes (4,598 of ~210k ≈ 2.2%).
	intermittentShare float64 = 0.022
	// intermittentSameNSShare: of intermittent domains, fraction keeping
	// the same name servers (59.13%, proxied toggling).
	intermittentSameNSShare float64 = 0.5913
	// switchAwayCount is the absolute number of domains switching from
	// CF to non-CF NS and losing HTTPS (236), scaled.
	switchAwayCount = 236
	// multiProviderMixCount is the absolute number of domains using a mix
	// of providers where not all support HTTPS (6), scaled.
	multiProviderMixCount = 6

	// --- IP hints (§4.3.5, Fig 11/12) ---

	// hintShareV4/V6: fraction of adopters publishing ipv4hint/ipv6hint
	// (97% / 87%).
	hintShareV4 float64 = 0.97
	hintShareV6 float64 = 0.87
	// earlyMismatchShare is the pre-June-19 mismatch rate (~2%).
	earlyMismatchShare float64 = 0.02
	// lateMismatchShare is the post-June-19 steady mismatch rate
	// (≈30–80 domains/day of ~210k ≈ 0.03%).
	lateMismatchShare float64 = 0.0003
	// mismatchMeanDays is the mean mismatch episode length (6.57 days
	// apex).
	mismatchMeanDays float64 = 6.57
	// persistentMismatchCount: domains mismatched for the entire period
	// (5 apex, cf-ns/China network), scaled.
	persistentMismatchCount = 5
	// hintUnreachableShare is P(one side unreachable | mismatch)
	// (§4.3.5: 193 of 317 distinct ≈ 61%).
	hintUnreachableShare float64 = 0.61
	// hintOnlyReachableShare splits the unreachable cases: 117 hint-only
	// of (117 + 59 A-only).
	hintOnlyReachableShare float64 = 0.66

	// --- ALPN (Table 8, §4.3.4, §E.2) ---

	// The non-CF alpn mix: h2 64.09%, h3 26.79%, none 8.44% (the
	// remainder is exotic).
	nonCFH2Share   float64 = 0.6409
	nonCFH3Share   float64 = 0.2679
	nonCFNoneShare float64 = 0.0844

	// --- provider-specific record shapes (Table 5, §E.1) ---

	// googleEmptyParamShare: Google-NS records in ServiceMode with no
	// SvcParams (95–99%).
	googleEmptyParamShare float64 = 0.9511
	// goDaddyAliasShare: GoDaddy-NS records in AliasMode (99.19%).
	goDaddyAliasShare float64 = 0.9919

	// --- pathological specials (§E.1), absolute counts scaled ---

	// aliasSelfTargetCount: AliasMode records with "." as TargetName (19).
	aliasSelfTargetCount = 19
	// serviceNoParamsCount: ServiceMode with no SvcParams (232).
	serviceNoParamsCount = 232
	// priorityListCount: nexuspipe-style records with priorities 1..12 (14).
	priorityListCount = 14
	// cnameApexCount: apexes answering with (illegal) CNAME (small).
	cnameApexCount = 25

	// recordTTL is the HTTPS record TTL (§4.4.2: 300s for >99%).
	recordTTL = 300
)

// providerWeight is one row of the non-CF provider ranking.
type providerWeight struct {
	name  string
	count int // absolute domain count at 1M scale (Table 3)
}

// nonCFWeights ranks the non-Cloudflare providers by domain count
// (Table 3 dynamic column).
var nonCFWeights = []providerWeight{
	{"eName", 185}, {"Google", 159}, {"GoDaddy", 105}, {"NSONE", 79},
	{"Domeneshop", 16}, {"Hover", 11}, {"ubmdns", 9}, {"domainactive", 8},
	{"informadns", 7}, {"nexuspipe", 14}, {"domaincontrol", 21},
	{"netclient", 6}, {"icsn", 5}, {"d-53", 5}, {"jpberlin", 4},
	{"gandi", 3}, {"cloudns", 3}, {"gentoo", 1}, {"sone", 7},
}

// scaleCount converts an absolute 1M-scale count to the simulation scale,
// flooring at 1 so qualitative populations survive.
func scaleCount(count, size int) int {
	scaled := count * size / 1_000_000
	if scaled < 1 && count > 0 {
		return 1
	}
	return scaled
}
