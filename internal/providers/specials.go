package providers

import (
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/simnet"
)

// assignSpecialPopulations runs the second generation pass: absolute-count
// populations (intermittency kinds, IP-hint mismatch schedules, non-CF ECH,
// configuration pathologies) drawn from shuffled eligibility lists so they
// are deterministic for a seed and scale correctly.
func (w *World) assignSpecialPopulations(rng *rand.Rand) {
	// Only domains that adopted before the NS measurement window are
	// eligible: the paper observed these behaviours among domains that
	// already had HTTPS records.
	var cfAdopters, nonCFAdopters []*DomainState
	for _, apex := range sortedApexes(w.Domains) {
		d := w.Domains[apex]
		if d.Profile == ProfileNone || d.AdoptDay.After(NSScanStart) {
			continue
		}
		if d.Providers[0].IsCloudflare {
			cfAdopters = append(cfAdopters, d)
		} else {
			nonCFAdopters = append(nonCFAdopters, d)
		}
	}
	shuffle(rng, cfAdopters)
	shuffle(rng, nonCFAdopters)

	w.assignIntermittency(rng, cfAdopters)
	w.assignMismatches(rng, cfAdopters)
	w.assignNonCFECH(rng, nonCFAdopters)
	w.assignPathologies(rng, cfAdopters, nonCFAdopters)
	w.assignDNSSECQuotas(rng)
}

// assignDNSSECQuotas assigns signing and DS-upload state by exact quota per
// Table 9's three populations, so the secure/insecure ratios hold at any
// simulation scale.
func (w *World) assignDNSSECQuotas(rng *rand.Rand) {
	var cf, nonCF, none []*DomainState
	for _, apex := range sortedApexes(w.Domains) {
		d := w.Domains[apex]
		switch {
		case d.Profile == ProfileNone || d.AdoptDay.After(StudyEnd):
			none = append(none, d)
		case d.Providers[0].IsCloudflare:
			cf = append(cf, d)
		default:
			nonCF = append(nonCF, d)
		}
	}
	assign := func(pool []*DomainState, pSigned, pInsecure float64) {
		shuffle(rng, pool)
		signed := int(float64(len(pool))*pSigned + 0.5)
		insecure := int(float64(signed)*pInsecure + 0.5)
		for i := 0; i < signed && i < len(pool); i++ {
			pool[i].Signed = true
			pool[i].DSUploaded = i >= insecure
		}
	}
	assign(cf, signedShareCF, cfInsecureShare)
	assign(nonCF, signedShareNonCF, nonCFInsecureShare)
	assign(none, signedShareNoHTTPS, noHTTPSInsecureShare)
}

func sortedApexes(m map[string]*DomainState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func shuffle(rng *rand.Rand, ds []*DomainState) {
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
}

// take removes and returns up to n entries from the front of the list.
func take(ds *[]*DomainState, n int) []*DomainState {
	if n > len(*ds) {
		n = len(*ds)
	}
	out := (*ds)[:n]
	*ds = (*ds)[n:]
	return out
}

// randomDay returns a uniformly drawn day within [from, to).
func randomDay(rng *rand.Rand, from, to time.Time) time.Time {
	days := int(to.Sub(from).Hours() / 24)
	if days <= 0 {
		return from
	}
	return from.Add(time.Duration(rng.Intn(days)) * 24 * time.Hour)
}

// assignIntermittency reproduces the §4.2.3 populations: proxied toggles,
// multi-provider mixes, switch-aways, and transient NS loss.
func (w *World) assignIntermittency(rng *rand.Rand, pool []*DomainState) {
	adopters := len(pool)
	totalIntermittent := int(float64(adopters) * intermittentShare)
	if totalIntermittent < 4 {
		totalIntermittent = 4
	}
	sameNS := int(float64(totalIntermittent) * intermittentSameNSShare)
	switchAway := scaleCount(switchAwayCount, w.Cfg.Size)
	multiMix := scaleCount(multiProviderMixCount, w.Cfg.Size)
	noNS := scaleCount(20, w.Cfg.Size)
	multiNS := totalIntermittent - sameNS - switchAway - noNS
	if multiNS < multiMix {
		multiNS = multiMix
	}
	// Keep the NS-change population observable at sparse scan cadences.
	if multiNS < 4 {
		multiNS = 4
	}

	// Proxied toggles: same Cloudflare NS, HTTPS off during episodes.
	for _, d := range take(&pool, sameNS) {
		d.Intermittent = IntermitProxiedToggle
		for i := 0; i < 1+rng.Intn(3); i++ {
			from := randomDay(rng, NSScanStart, StudyEnd)
			d.OffEpisodes = append(d.OffEpisodes, interval{
				From: from,
				To:   from.Add(time.Duration(1+rng.Intn(10)) * 24 * time.Hour),
			})
		}
	}

	// Multi-provider mixes: Cloudflare plus a non-supporting provider;
	// which one a resolver hits rotates daily.
	legacy := w.ProviderByName["LegacyDNS"]
	for _, d := range take(&pool, multiNS) {
		d.Intermittent = IntermitMultiProvider
		d.Providers = append(d.Providers, legacy)
		legacy.AddDomain(d)
	}

	// Switch-aways: move from Cloudflare to a non-HTTPS registrar mid-study.
	reg := w.ProviderByName["RegistrarOne"]
	for _, d := range take(&pool, switchAway) {
		d.Intermittent = IntermitSwitchAway
		d.SwitchDay = randomDay(rng, NSScanStart, StudyEnd)
		d.Providers = append(d.Providers, reg)
		reg.AddDomain(d)
	}

	// Transient NS loss (episodes long enough to be visible at sampled
	// scan cadences).
	for _, d := range take(&pool, noNS) {
		d.Intermittent = IntermitNoNS
		from := randomDay(rng, NSScanStart, StudyEnd.Add(-21*24*time.Hour))
		d.NoNSEpisodes = append(d.NoNSEpisodes, interval{
			From: from, To: from.Add(time.Duration(10+rng.Intn(11)) * 24 * time.Hour)})
	}
}

// assignMismatches reproduces the §4.3.5/§E.3 IP-hint drift populations.
func (w *World) assignMismatches(rng *rand.Rand, pool []*DomainState) {
	adopters := len(pool) + 1
	early := int(float64(adopters) * earlyMismatchShare)
	late := int(float64(adopters) * lateMismatchShare * 10) // episodes spread over ~10 windows
	if late < 8 {
		late = 8
	}
	persistent := scaleCount(persistentMismatchCount, w.Cfg.Size)

	episode := func(d *DomainState, from time.Time) {
		days := 1 + int(rng.ExpFloat64()*mismatchMeanDays)
		if days > 30 {
			days = 30
		}
		d.MismatchEpisodes = append(d.MismatchEpisodes, interval{
			From: from, To: from.Add(time.Duration(days) * 24 * time.Hour)})
	}
	reach := func(d *DomainState) {
		d.HintReachable, d.AReachable = true, true
		if rng.Float64() < hintUnreachableShare {
			if rng.Float64() < hintOnlyReachableShare {
				d.AReachable = false // only the hint address answers
			} else {
				d.HintReachable = false // only the A record answers
			}
		}
	}

	// Early bulk (before the June 19th fix).
	for _, d := range take(&pool, early) {
		episode(d, randomDay(rng, StudyStart, HintFixDate.Add(-48*time.Hour)))
		reach(d)
	}
	// Steady trickle afterwards.
	for _, d := range take(&pool, late) {
		for i := 0; i < 1+rng.Intn(3); i++ {
			episode(d, randomDay(rng, HintFixDate, StudyEnd))
		}
		reach(d)
	}
	// Persistent (the cf-ns China-network domains).
	for _, d := range take(&pool, persistent) {
		d.MismatchEpisodes = []interval{{From: StudyStart.Add(-24 * time.Hour), To: StudyEnd.Add(48 * time.Hour)}}
		d.HintReachable, d.AReachable = true, true
	}
	// Probe-window population: the §4.3.5 connectivity experiment ran
	// Jan 24 – Mar 31, 2024 and found 317 distinct mismatched domains;
	// plant a floored scaled population with episodes inside that window
	// so the experiment stays meaningful at small simulation scales.
	probeStart := time.Date(2024, 1, 24, 0, 0, 0, 0, time.UTC)
	probePop := scaleCount(317, w.Cfg.Size)
	if probePop < 12 {
		probePop = 12
	}
	for _, d := range take(&pool, probePop) {
		for i := 0; i < 1+rng.Intn(2); i++ {
			episode(d, randomDay(rng, probeStart, StudyEnd.Add(-72*time.Hour)))
		}
		reach(d)
	}
}

// assignNonCFECH enrols the scaled absolute count of non-Cloudflare domains
// whose ECH configs nevertheless point at Cloudflare's client-facing server
// (§4.4.1).
func (w *World) assignNonCFECH(rng *rand.Rand, pool []*DomainState) {
	n := scaleCount(nonCFECHApex, w.Cfg.Size)
	for _, d := range take(&pool, n) {
		d.ECH = true
		// Their provider serves the CF config list.
		for _, p := range d.Providers {
			if p.ECHManager == nil {
				p.ECHManager = w.ECHKeys
				p.ECHProgramEnd = ECHDisableDate
				p.ECHPublicName = "cloudflare-ech.com"
			}
		}
	}
}

// assignPathologies plants the §E.1 configuration oddities.
func (w *World) assignPathologies(rng *rand.Rand, cf, nonCF []*DomainState) {
	for _, d := range take(&nonCF, scaleCount(aliasSelfTargetCount, w.Cfg.Size)) {
		d.Profile = ProfileAliasSelf
	}
	for _, d := range take(&nonCF, scaleCount(serviceNoParamsCount, w.Cfg.Size)) {
		d.Profile = ProfileServiceNoParams
		d.ALPN = nil
	}
	for _, d := range take(&nonCF, scaleCount(priorityListCount, w.Cfg.Size)) {
		d.Profile = ProfilePriorityList
	}
	for _, d := range take(&cf, scaleCount(cnameApexCount, w.Cfg.Size)) {
		d.ApexCNAME = true
		d.WWWCNAME = false // the two would alias each other in a loop
		d.HasWWW = true
		d.WWWHTTPS = true
	}
}

// ProbeTLS models the §4.3.5 connectivity experiment: an OpenSSL-style TLS
// handshake attempt from the scanner to addr:443 for the given domain. It
// consults the domain's reachability schedule (during a mismatch episode one
// side may be down) and returns nil on success.
func (w *World) ProbeTLS(apex string, addr netip.Addr) error {
	return w.ProbeTLSAt(apex, addr, w.Clock.Now())
}

// ProbeTLSAt is ProbeTLS evaluated at an explicit virtual time, for per-day
// scan contexts that probe several days concurrently against one world.
func (w *World) ProbeTLSAt(apex string, addr netip.Addr, now time.Time) error {
	d, ok := w.Domain(apex)
	if !ok {
		return simnet.ErrNoService
	}
	if d.InMismatch(now) {
		hintAddr := d.HintV4Addr()
		aAddr := d.CurrentV4(now)
		switch addr {
		case hintAddr:
			if !d.HintReachable {
				return simnet.ErrUnreachable
			}
			return nil
		case aAddr:
			if !d.AReachable {
				return simnet.ErrUnreachable
			}
			return nil
		}
		return simnet.ErrUnreachable
	}
	// Outside mismatch episodes every published address serves.
	if addr == d.CurrentV4(now) || addr == d.HintV4Addr() ||
		addr == d.OriginV4 || addr == d.AnycastV4 {
		return nil
	}
	return simnet.ErrUnreachable
}
