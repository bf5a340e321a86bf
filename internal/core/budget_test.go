package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/testrace"
	"repro/internal/transport"
)

// runCampaign runs the paper's method over size names for days days, one
// day and one scan worker at a time — direct (stub to public recursor) when
// fleet is nil, else through the fleet it configures — and returns the
// names it scanned, apex and www, and the allocations and bytes the run
// made.
func runCampaign(t *testing.T, size, days int, fleet func(*CampaignConfig)) (names int, mallocs, bytes uint64) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	start := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	cfg := CampaignConfig{Size: size, Seed: 7, Start: start, End: start.AddDate(0, 0, days-1)}
	if fleet != nil {
		fleet(&cfg)
	}
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Scanner.Concurrency = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.RunDaily(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return 2 * size * days, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestDirectCampaignAllocBudget pins what the paper's method allocates per
// scanned name over 300 names on two days. Answers and referrals cost no
// records of their own (every set a provider or TLD hands out is a memoised
// box that carries its RRSIG, and the referral sections are memoised per
// domain), recursor cache entries come from a slab, walk queries from the
// query table the day forks share, list names are spelled once per world,
// a DNSKEY's key tag is summed from its fields, not packed first, an ech
// parameter is read in place, and a signature's canonical signing input
// and a DS match's owner ‖ RDATA are built in a pooled buffer and hashed
// there, and the root's answers share its records. What the scan stores is
// interned — address and name lists, alpn and hint values, whole HTTPS
// record sets — and a list's keepers are carved from slabs, so a kept
// observation costs no allocation of its own once its values have been
// seen, and a signature is made in dnssec on stack buffers and pooled
// integers: about 5.7 allocations per name with every table cold (8.4
// while crypto/ecdsa's Sign made each signature, 10.4 while a
// signature's DER went through asn1.Unmarshal, 12.1 while each observation
// got fresh slices, 12.9 while the root deep-copied every record it served,
// 17.8 when every RRset member was packed into a slice of its own).
func TestDirectCampaignAllocBudget(t *testing.T) {
	const ceiling = 6.0
	names, mallocs, _ := runCampaign(t, 300, 2, nil)
	if per := float64(mallocs) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.2f allocations each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.2f allocations each", names, per)
	}
}

// TestDirectCampaignBytesBudget pins the bytes the same campaign allocates
// per scanned name over eight days, where the collector's work follows
// bytes, not objects: each walk query is built once per world, not once per
// walk, and each day's answer and cut maps start at the previous day's
// size instead of regrowing from empty, signing inputs are built in a
// pooled buffer, stored values are interned, and a signature is made in
// dnssec, not through crypto/ecdsa's Sign. About 835 B per name (895 while
// crypto/ecdsa's Sign made each signature, 1 050 before the interning,
// 1 200 before the pool).
func TestDirectCampaignBytesBudget(t *testing.T) {
	const ceiling = 880.0
	names, _, bytes := runCampaign(t, 300, 8, nil)
	if per := float64(bytes) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.0f B each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.0f B each", names, per)
	}
}

// TestFleetCampaignAllocBudget pins what the same 300-name, 2-day campaign
// allocates per scanned name through the 2:1:1 DoH/DoT/DoQ fleet under
// race. Each day runs on a fleet replica with a cold answer cache, so
// nearly every answer lands in a growing shard: its entry comes from the
// cache's slab and its wire buffer, TTL slots behind it, from the cache's
// arena. The client decodes each answer into a message from its question
// type's pool, whose RDATA values it reuses, and the query's own name
// stands for the answer's question and owners; the recursors validate with
// signing inputs built in a pooled buffer, the root's answers share its
// records, and the scan interns what it stores. Every decode, frontend and
// stub alike, takes its name strings from the one process-wide decode
// table, and a signature is made in dnssec on stack buffers and pooled
// integers. About 8.6 allocations per name with every intern table cold
// (15.9 while crypto/ecdsa's Sign made each signature, 19.2 while each
// pooled decode scratch kept a table of its own and a
// signature's DER went through asn1.Unmarshal, 21.2 before the interning,
// 22.3 while the root deep-copied its records, 26.6 with one answer pool
// and a buffer per entry, 31.7 before the signing pool, 35.0 when an entry
// cost three). Which raced attempts reach a recursor depends on goroutine
// timing, so repeated runs spread over about a tenth of an allocation.
func TestFleetCampaignAllocBudget(t *testing.T) {
	const ceiling = 9.1
	names, mallocs, _ := runCampaign(t, 300, 2, func(c *CampaignConfig) {
		c.DoHFrontends, c.TransportMix, c.TransportStrategy = 4, transport.Mix{DoH: 2, DoT: 1, DoQ: 1}, transport.StrategyRace
	})
	if per := float64(mallocs) / float64(names); per > ceiling {
		t.Errorf("%d scanned names cost %.2f allocations each, ceiling %v", names, per, ceiling)
	} else {
		t.Logf("%d scanned names cost %.2f allocations each", names, per)
	}
}

// TestHourlyECHAllocBudget pins what the hourly ECH scan allocates per
// stored observation: a direct campaign over 300 names, one day of hourly
// scans after a daily scan of that day has named the ECH population. Each
// hour runs on forked recursors with cold caches, so recursion, validation
// and the authoritatives' answers carry most of it; the scan itself reads
// only the ech parameter, in place, and keeps one key hash per observation
// and a public name every observation shares. Each rotation rebuilds its
// HTTPS set in one allocation (params and hint values ride in the set, a
// Cloudflare default's alpn value is shared), and the set is signed and
// validated with its canonical form built in a pooled buffer and hashed
// there. The root serves its own records to each hour's cold recursors,
// not deep copies, and a cold recursor's delegation server lists are
// interned across forks. A signature's check is a lookup in the memo its
// signer seeded, and the signature itself is made in dnssec: an RFC 6979
// nonce from an HMAC-DRBG on stack arrays, k·G through crypto/ecdh and s
// on pooled integers, 13 allocations where crypto/ecdsa's Sign took 64.
// About 4.8 allocations per observation (6.5 to 6.73 while crypto/ecdsa's
// Sign made each signature and its DER was read into r‖s in place, 7.75
// while a signature's first check ran ECDSA, 7.9 while the DER went
// through asn1.Unmarshal, 8.6 while each fork interned its own server
// lists, 17.2 before the set was one allocation and the root's answers
// shared, 25.4 before the signing pool).
func TestHourlyECHAllocBudget(t *testing.T) {
	const ceiling = 5.0
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	c, err := NewCampaign(CampaignConfig{Size: 300, Seed: 7, Start: start, End: start})
	if err != nil {
		t.Fatal(err)
	}
	c.Scanner.Concurrency = 1
	if err := c.RunDaily(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.RunHourlyECH(start, 1)
	runtime.ReadMemStats(&after)
	n := len(c.Store.ECHObservations())
	if n == 0 {
		t.Fatal("no ECH observations")
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(n); per > ceiling {
		t.Errorf("%d ECH observations cost %.2f allocations each, ceiling %v", n, per, ceiling)
	} else {
		t.Logf("%d ECH observations cost %.2f allocations each", n, per)
	}
}

// TestHourlyECHVerifiesNoSignature: every signature an hourly ECH campaign
// validates was made in this process moments before, and the signer adds
// each one it makes to dnssec's process memo. So one hourly day over 300
// names through the 2:1:1 racing fleet validates with memo hits alone and
// runs no full ECDSA verification (about 1 700 ran per five-day campaign
// at size 3 000 while only verified signatures were memoised). Signs and
// hits must both be non-zero, so a run that validated nothing cannot pass.
func TestHourlyECHVerifiesNoSignature(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	c, err := NewCampaign(CampaignConfig{Size: 300, Seed: 7, Start: start, End: start,
		DoHFrontends: 4, TransportMix: transport.Mix{DoH: 2, DoT: 1, DoQ: 1}, TransportStrategy: transport.StrategyRace})
	if err != nil {
		t.Fatal(err)
	}
	before := dnssec.ReadCounts()
	c.RunHourlyECH(start, 1)
	n := dnssec.ReadCounts().Sub(before)
	if len(c.Store.ECHObservations()) == 0 {
		t.Fatal("no ECH observations")
	}
	if n.Signs == 0 || n.Hits == 0 {
		t.Fatalf("%d signs and %d memo hits: nothing was signed and validated", n.Signs, n.Hits)
	}
	if n.Verifies != 0 {
		t.Errorf("%d full ECDSA verifies (%d signs, %d memo hits), want 0", n.Verifies, n.Signs, n.Hits)
	} else {
		t.Logf("%d signs, %d memo hits, no full verify", n.Signs, n.Hits)
	}
}
