package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/transport"
)

func augCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := NewCampaign(CampaignConfig{
		Size: 1200, Seed: 17,
		Start:    time.Date(2023, 8, 16, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2023, 9, 20, 0, 0, 0, 0, time.UTC),
		StepDays: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignDefaults(t *testing.T) {
	c, err := NewCampaign(CampaignConfig{Size: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.StepDays != 1 {
		t.Errorf("default StepDays = %d", c.Cfg.StepDays)
	}
	if c.Cfg.Start.IsZero() || c.Cfg.End.IsZero() {
		t.Error("default window not applied")
	}
	if !c.Cfg.Start.Equal(time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("start = %v", c.Cfg.Start)
	}
}

// TestNewCampaignRejectsFleetFeaturesWithoutFleet: the options whose doc
// says "Requires DoHFrontends > 0" are refused without a fleet rather than
// silently storing nothing.
func TestNewCampaignRejectsFleetFeaturesWithoutFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"AnomalyCapture", CampaignConfig{AnomalyCapture: true}},
	} {
		tc.cfg.Size, tc.cfg.Seed = 200, 1
		_, err := NewCampaign(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.name+" requires DoHFrontends > 0") {
			t.Errorf("%s without a fleet: NewCampaign error = %v", tc.name, err)
		}
	}
}

// TestNewCampaignRejectsNegativeSizeAndStep: a negative step would walk
// RunDaily's day loop backwards past End forever, and a negative size has
// no world to build, so both are refused up front.
func TestNewCampaignRejectsNegativeSizeAndStep(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Size: -5, Seed: 1},
		{Size: 200, Seed: 1, StepDays: -1},
	} {
		if _, err := NewCampaign(cfg); err == nil {
			t.Errorf("NewCampaign(Size %d, StepDays %d) returned no error", cfg.Size, cfg.StepDays)
		}
	}
}

func TestRunDailyCollectsAllDatasets(t *testing.T) {
	c := augCampaign(t)
	var progress bytes.Buffer
	c.Cfg.Progress = &progress
	if err := c.RunDaily(); err != nil {
		t.Fatal(err)
	}
	apexDays := c.Store.Days("apex")
	wwwDays := c.Store.Days("www")
	if len(apexDays) != 6 || len(wwwDays) != 6 {
		t.Fatalf("days: apex=%d www=%d, want 6", len(apexDays), len(wwwDays))
	}
	// NS snapshots collected (window starts 2023-08-16).
	if len(c.Store.NSDays()) != 6 {
		t.Errorf("NS days = %d", len(c.Store.NSDays()))
	}
	// Tranco lists stored alongside.
	if _, ok := c.Store.TrancoListFor(apexDays[0]); !ok {
		t.Error("tranco list missing")
	}
	// Adopter ratio in a plausible band.
	snap, _ := c.Store.SnapshotFor("apex", apexDays[0])
	ratio := float64(len(snap.Obs)) / float64(snap.Total)
	if ratio < 0.10 || ratio > 0.40 {
		t.Errorf("adopter ratio = %.2f", ratio)
	}
	if !strings.Contains(progress.String(), "scanned") {
		t.Error("progress output missing")
	}
}

// TestCampaignThroughDoHFleet runs a scan day end-to-end through the
// encrypted serving layer and checks it observes the same adopters as the
// bare-stub path, with the fleet demonstrably in the loop.
func TestCampaignThroughDoHFleet(t *testing.T) {
	day := time.Date(2023, 9, 6, 0, 0, 0, 0, time.UTC)
	bare, err := NewCampaign(CampaignConfig{Size: 800, Seed: 17, Start: day, End: day})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.RunDaily(); err != nil {
		t.Fatal(err)
	}

	fleet, err := NewCampaign(CampaignConfig{
		Size: 800, Seed: 17, Start: day, End: day,
		DoHFrontends: 3, TelemetryInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Fleet.Frontends) != 3 || len(fleet.Fleet.Pool.Stats()) != 3 {
		t.Fatalf("fleet not built: %d frontends, %d pool members",
			len(fleet.Fleet.Frontends), len(fleet.Fleet.Pool.Stats()))
	}
	if err := fleet.RunDaily(); err != nil {
		t.Fatal(err)
	}

	bareSnap, _ := bare.Store.SnapshotFor("apex", day)
	fleetSnap, _ := fleet.Store.SnapshotFor("apex", day)
	if bareSnap == nil || fleetSnap == nil {
		t.Fatal("missing snapshots")
	}
	// Same world, same day: the serving layer must be transparent to
	// the measurement results.
	if len(fleetSnap.Obs) != len(bareSnap.Obs) {
		t.Errorf("adopters differ: DoH %d vs stub %d", len(fleetSnap.Obs), len(bareSnap.Obs))
	}
	for name := range bareSnap.Obs {
		if _, ok := fleetSnap.Obs[name]; !ok {
			t.Errorf("adopter %s lost through the DoH layer", name)
		}
	}
	// The day ran on a replica of the fleet, which is gone once the day
	// commits; what it left in the store shows it carried the scan. The
	// stub-side negative count only moves on exchanges through the fleet
	// client (most of the list publishes no HTTPS record).
	serving, ok := fleet.Store.ServingFor(day)
	if !ok {
		t.Fatal("serving snapshot not recorded for the scanned day")
	}
	if serving.NegativeHits == 0 {
		t.Error("serving snapshot counts no negative answers through the fleet client")
	}
	series, ok := fleet.Store.TelemetryFor("daily", day)
	if !ok || len(series.Points) == 0 {
		t.Fatal("no daily telemetry series for the scanned day")
	}
	last := series.Points[len(series.Points)-1]
	if last.Value("client_exchanges_total") == 0 {
		t.Error("DoH frontends saw no traffic during the scan")
	}
	if last.Value("pool_members") != 3 {
		t.Errorf("day replica pool had %v members, want 3", last.Value("pool_members"))
	}
	// Cache counters are schedule-dependent and never stored, so look
	// inside a day context built the way RunDaily builds them.
	dc := fleet.newDayContext(day)
	fleet.runDay(dc, day)
	if dc.fleet.TotalStats().CacheHits == 0 {
		t.Error("shared cache absorbed nothing (www scan re-queries apex NS/SOA)")
	}
	if fleet.Fleet.TotalStats().Served != 0 {
		t.Error("scan days touched the campaign-level fleet instead of their replicas")
	}
}

// storeJSON serialises a campaign's store for byte-level comparison (the
// export sorts snapshot days, and JSON encodes maps with sorted keys, so
// equal stores produce equal bytes).
func storeJSON(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Store.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelinedMatchesSerial is the pipelining equivalence guarantee: for
// the same seed, running the campaign with one day worker and with eight
// must produce byte-identical stores (snapshots, NS snapshots, Tranco
// lists, and probe results — the window covers both the NS-scan and
// connectivity-probe phases).
func TestPipelinedMatchesSerial(t *testing.T) {
	cfg := CampaignConfig{
		Size: 700, Seed: 23,
		Start:    time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2024, 2, 21, 0, 0, 0, 0, time.UTC),
		StepDays: 7,
	}
	run := func(workers int) []byte {
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.DayWorkers = workers
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		if len(c.Store.Days("apex")) != 7 {
			t.Fatalf("workers=%d: apex days = %d, want 7", workers, len(c.Store.Days("apex")))
		}
		if len(c.Store.Probes()) == 0 {
			t.Fatalf("workers=%d: no probe results in a window past the probe start", workers)
		}
		return storeJSON(t, c)
	}
	serial := run(1)
	pipelined := run(8)
	if !bytes.Equal(serial, pipelined) {
		t.Fatalf("pipelined store diverges from serial: %d vs %d bytes", len(serial), len(pipelined))
	}
}

// TestPipelinedMixedFleetMatchesSerial runs the pipelining equivalence
// through a mixed DoH/DoT/DoQ serving fleet: per-day replicas keep their
// clocks frozen (newDayContext), so a campaign through the encrypted
// layer — any protocol mix — must produce a byte-identical store for any
// worker count, serving-layer lifecycle snapshots included.
func TestPipelinedMixedFleetMatchesSerial(t *testing.T) {
	// The window sits past connectivityProbeStart so the NS-scan and
	// probe phases both run through the fleet.
	cfg := CampaignConfig{
		Size: 500, Seed: 29,
		Start:        time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
		End:          time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC),
		StepDays:     7,
		DoHFrontends: 4,
		TransportMix: transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
	}
	run := func(workers int) *Campaign {
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.DayWorkers = workers
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		if len(c.Store.Probes()) == 0 {
			t.Fatalf("workers=%d: no probe results in a window past the probe start", workers)
		}
		return c
	}
	serial := run(1)
	pipelined := run(4)

	// The fleet must actually be mixed and in the loop.
	protos := map[transport.Protocol]bool{}
	for _, fe := range serial.Fleet.Frontends {
		protos[fe.Proto] = true
	}
	if len(protos) != 3 {
		t.Fatalf("fleet spans %d protocols, want 3 (%v)", len(protos), protos)
	}
	// Per-day replicas carry the traffic during RunDaily; the campaign
	// fleet itself stays idle. The replicas' protocol assignment is
	// verified through the store equality below.

	// One serving snapshot per scan day, recorded identically.
	if got, want := len(serial.Store.ServingDays()), len(serial.Store.Days("apex")); got != want {
		t.Fatalf("serving snapshots for %d days, want %d", got, want)
	}

	a, b := storeJSON(t, serial), storeJSON(t, pipelined)
	if !bytes.Equal(a, b) {
		t.Fatalf("mixed-fleet pipelined store diverges from serial: %d vs %d bytes", len(a), len(b))
	}
}

// TestPipelinedStrategiesMatchSerial extends the pipelining equivalence
// to the race strategy: a mixed-fleet campaign under happy-eyeballs
// protocol racing, and a same-protocol campaign whose races degrade to
// connection racing, must each produce byte-identical stores for any
// worker count. Races change which frontend answers and how many
// attempts fire — never the answers — and per-day replicas keep their
// clocks frozen, so the determinism contract holds attempt-for-attempt.
func TestPipelinedStrategiesMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind transport.StrategyKind
		mix  transport.Mix
	}{
		{"race", transport.StrategyRace, transport.Mix{DoH: 2, DoT: 1, DoQ: 1}},
		{"race-doh", transport.StrategyRace, transport.Mix{DoH: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CampaignConfig{
				Size: 400, Seed: 31,
				Start:             time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
				End:               time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC),
				StepDays:          7,
				DoHFrontends:      4,
				TransportMix:      tc.mix,
				TransportStrategy: tc.kind,
			}
			run := func(workers int) []byte {
				c, err := NewCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				c.Cfg.DayWorkers = workers
				if err := c.RunDaily(); err != nil {
					t.Fatal(err)
				}
				return storeJSON(t, c)
			}
			serial := run(1)
			pipelined := run(8)
			if !bytes.Equal(serial, pipelined) {
				t.Fatalf("%s: pipelined store diverges from serial: %d vs %d bytes",
					tc.name, len(serial), len(pipelined))
			}
		})
	}
}

// TestServingPathsStoreWhatDirectStores is the serving layer's
// metamorphic check: one world scanned four ways — direct stub queries,
// a one-frontend DoH fleet under serial failover, and the 2:1:1 mixed
// fleet under serial and under race — must commit byte-equal
// measurement tables. Only the serving table, which exists only behind
// a fleet, may differ. The golden digests pin one configuration to its
// own bytes; this pins every configuration to the same answers, so a
// serving-path bug that rewrites answers the same way every run (a
// frontend or strategy dropping AD, say) fails here.
func TestServingPathsStoreWhatDirectStores(t *testing.T) {
	tables := func(fleet func(*CampaignConfig)) map[string]json.RawMessage {
		cfg := CampaignConfig{
			Size: 400, Seed: 17,
			Start:    time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
			End:      time.Date(2024, 2, 8, 0, 0, 0, 0, time.UTC),
			StepDays: 7,
		}
		fleet(&cfg)
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		// cmd/reproduce's order. Cloudflare still served ECH in July 2023,
		// so the ech table fills; the census comes last because it warms
		// the world's own recursors and fleet on the world clock, and an
		// ECH day set back behind it would read answers cached later.
		c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 1)
		c.RunValidationCensus(c.Cfg.End)
		var out map[string]json.RawMessage
		if err := json.Unmarshal(storeJSON(t, c), &out); err != nil {
			t.Fatal(err)
		}
		delete(out, "serving")
		return out
	}
	direct := tables(func(*CampaignConfig) {})
	for _, table := range []string{"apex", "www", "ns", "ech", "probes", "validation"} {
		if len(direct[table]) < 8 {
			t.Fatalf("direct run stored no %s table: %s", table, direct[table])
		}
	}
	mixed := transport.Mix{DoH: 2, DoT: 1, DoQ: 1}
	for name, fleet := range map[string]func(*CampaignConfig){
		"doh1-serial": func(c *CampaignConfig) { c.DoHFrontends = 1 },
		"mixed-serial": func(c *CampaignConfig) {
			c.DoHFrontends, c.TransportMix = 4, mixed
		},
		"mixed-race": func(c *CampaignConfig) {
			c.DoHFrontends, c.TransportMix, c.TransportStrategy = 4, mixed, transport.StrategyRace
		},
	} {
		got := tables(fleet)
		if len(got) != len(direct) {
			t.Errorf("%s: stored tables %d, direct %d", name, len(got), len(direct))
		}
		for table, want := range direct {
			if !bytes.Equal(got[table], want) {
				t.Errorf("%s: %s table differs from the direct run's (%d vs %d bytes)", name, table, len(got[table]), len(want))
			}
		}
	}
}

func TestHourlyECHCadence(t *testing.T) {
	c := augCampaign(t)
	start := time.Date(2023, 8, 20, 0, 0, 0, 0, time.UTC)
	c.RunHourlyECH(start, 1)
	obs := c.Store.ECHObservations()
	if len(obs) == 0 {
		t.Fatal("no hourly ECH observations")
	}
	// Observations must cover 24 distinct hours.
	hours := map[int64]bool{}
	for _, o := range obs {
		hours[o.Time.Unix()/3600] = true
	}
	if len(hours) != 24 {
		t.Errorf("hourly coverage = %d hours, want 24", len(hours))
	}
	// Multiple distinct keys must appear within a day (76-minute period).
	keys := map[uint64]bool{}
	for _, o := range obs {
		keys[o.KeyHash] = true
	}
	if len(keys) < 10 {
		t.Errorf("distinct keys in 24h = %d, want ≈19", len(keys))
	}
}

func TestValidationCensusClassification(t *testing.T) {
	c := augCampaign(t)
	c.RunValidationCensus(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
	rows := c.Store.Validation()
	if len(rows) != 1200 {
		t.Fatalf("census rows = %d", len(rows))
	}
	var signed, secure, insecure, withHTTPS int
	for _, r := range rows {
		if r.HasHTTPS {
			withHTTPS++
		}
		if r.Signed {
			signed++
			switch r.Result {
			case "secure":
				secure++
			case "insecure":
				insecure++
			case "bogus":
				t.Errorf("bogus validation for %s", r.Domain)
			}
		} else if r.Result != "" {
			t.Errorf("unsigned domain %s has result %q", r.Domain, r.Result)
		}
	}
	if signed == 0 || withHTTPS == 0 {
		t.Fatalf("census empty: signed=%d https=%d", signed, withHTTPS)
	}
	if secure+insecure != signed {
		t.Errorf("secure(%d)+insecure(%d) != signed(%d)", secure, insecure, signed)
	}
}

// TestPipelinedTelemetryMatchesSerial is the observability subsystem's
// determinism proof at the campaign level: with telemetry series enabled,
// a mixed-fleet racing campaign must still produce a byte-identical store
// for any worker count — the series sample only stable (winner-side)
// metrics at frozen-clock stage boundaries, so worker interleaving cannot
// leak into the curves.
func TestPipelinedTelemetryMatchesSerial(t *testing.T) {
	cfg := CampaignConfig{
		Size: 500, Seed: 29,
		Start:             time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
		End:               time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC),
		StepDays:          7,
		DoHFrontends:      4,
		TransportMix:      transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		TelemetryInterval: time.Hour,
	}
	run := func(workers int) *Campaign {
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.DayWorkers = workers
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	pipelined := run(8)

	// One series per scan day, with a sample forced at every stage
	// boundary (the window sits past the NS-scan and probe starts, so all
	// four stages run) and real exchange counts on the final point.
	days := serial.Store.Days("apex")
	if got, want := len(serial.Store.TelemetryAll()), len(days); got != want {
		t.Fatalf("telemetry series for %d days, want %d", got, want)
	}
	series, ok := serial.Store.TelemetryFor("daily", days[0])
	if !ok {
		t.Fatalf("no daily series for %s", days[0].Format("2006-01-02"))
	}
	var labels []string
	for _, p := range series.Points {
		labels = append(labels, p.Label)
	}
	if got, want := strings.Join(labels, ","), "apex,www,ns,probes"; got != want {
		t.Fatalf("sample labels = %q, want %q", got, want)
	}
	last := series.Points[len(series.Points)-1]
	if last.Value("client_exchanges_total") == 0 {
		t.Error("final sample records no exchanges")
	}
	if last.Value("pool_healthy") == 0 {
		t.Error("final sample records no healthy pool members")
	}

	a, b := storeJSON(t, serial), storeJSON(t, pipelined)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry-enabled pipelined store diverges from serial: %d vs %d bytes", len(a), len(b))
	}
}

// TestPipelinedHourlyMatchesSerial is the hour-pipeline equivalence
// guarantee: with a mixed racing fleet and telemetry series enabled, the
// §4.4.2 hourly-ECH run must produce byte-identical stores (ECH
// observations and hourly-ech telemetry series included) for HourWorkers
// 1 and 8.
func TestPipelinedHourlyMatchesSerial(t *testing.T) {
	cfg := CampaignConfig{
		Size: 500, Seed: 29,
		DoHFrontends:      4,
		TransportMix:      transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		TelemetryInterval: time.Hour,
		// The anomaly tier rides the hour replicas too (recorder plus tail
		// tracer); hourly runs commit no captures, but the tier being on
		// must not perturb a single stored byte.
		AnomalyCapture: true,
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	run := func(workers int) *Campaign {
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.HourWorkers = workers
		c.RunHourlyECH(start, 2)
		return c
	}
	serial := run(1)
	pipelined := run(8)

	obs := serial.Store.ECHObservations()
	if len(obs) == 0 {
		t.Fatal("no hourly ECH observations")
	}
	hours := map[int64]bool{}
	for _, o := range obs {
		hours[o.Time.Unix()/3600] = true
	}
	if len(hours) != 48 {
		t.Fatalf("hourly coverage = %d hours, want 48", len(hours))
	}
	// One hourly-ech series per scan day, 24 cumulative points each.
	for d := 0; d < 2; d++ {
		day := start.AddDate(0, 0, d)
		series, ok := serial.Store.TelemetryFor("hourly-ech", day)
		if !ok {
			t.Fatalf("no hourly-ech series for %s", day.Format("2006-01-02"))
		}
		if len(series.Points) != 24 {
			t.Fatalf("day %d: %d telemetry points, want 24", d, len(series.Points))
		}
		// The cumulative fold must be monotone in exchange count.
		prev := -1.0
		for _, p := range series.Points {
			v := p.Value("client_exchanges_total")
			if v < prev {
				t.Fatalf("day %d: cumulative exchanges decreased: %v after %v", d, v, prev)
			}
			prev = v
		}
		if prev == 0 {
			t.Fatalf("day %d: final point records no exchanges", d)
		}
	}

	a, b := storeJSON(t, serial), storeJSON(t, pipelined)
	if !bytes.Equal(a, b) {
		t.Fatalf("pipelined hourly store diverges from serial: %d vs %d bytes", len(a), len(b))
	}
}

// TestHourlyDiscoveryFastPath checks RunHourlyECH reuses the day's
// stored apex snapshot instead of re-scanning the full Tranco list: with
// the snapshot present the run issues strictly fewer simulated queries,
// and both paths scan the identical ECH population.
func TestHourlyDiscoveryFastPath(t *testing.T) {
	start := time.Date(2023, 8, 20, 0, 0, 0, 0, time.UTC)
	run := func(preScan bool) (uint64, map[string]bool) {
		c, err := NewCampaign(CampaignConfig{Size: 1200, Seed: 17, Start: start, End: start})
		if err != nil {
			t.Fatal(err)
		}
		if preScan {
			if err := c.RunDaily(); err != nil {
				t.Fatal(err)
			}
		}
		before := c.World.Net.QueryCount()
		c.RunHourlyECH(start, 1)
		queries := c.World.Net.QueryCount() - before
		domains := map[string]bool{}
		for _, o := range c.Store.ECHObservations() {
			domains[o.Domain] = true
		}
		return queries, domains
	}
	slowQueries, slowDomains := run(false)
	fastQueries, fastDomains := run(true)
	if len(fastDomains) == 0 {
		t.Fatal("fast path scanned no ECH domains")
	}
	if len(fastDomains) != len(slowDomains) {
		t.Fatalf("ECH populations differ: fast %d vs slow %d", len(fastDomains), len(slowDomains))
	}
	for d := range slowDomains {
		if !fastDomains[d] {
			t.Fatalf("fast path missed ECH domain %s", d)
		}
	}
	if fastQueries >= slowQueries {
		t.Fatalf("fast path issued %d queries, not fewer than the %d of the discovery scan",
			fastQueries, slowQueries)
	}
}

// TestRewindReadsNoLaterAnswers: a stage that sets the world clock back
// must not read answers the world's recursors or the campaign fleet
// cached at a later virtual time. The hourly ECH discovery scan runs on
// the world clock, so after the January 2024 census, or an ECH day in
// January, it must store the July 2023 observations a fresh campaign
// stores.
func TestRewindReadsNoLaterAnswers(t *testing.T) {
	july := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	jan := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC)
	julyObs := func(frontends int, before func(*Campaign)) int {
		c, err := NewCampaign(CampaignConfig{Size: 400, Seed: 17, DoHFrontends: frontends})
		if err != nil {
			t.Fatal(err)
		}
		before(c)
		c.RunHourlyECH(july, 1)
		n := 0
		for _, o := range c.Store.ECHObservations() {
			if o.Time.Before(jan) {
				n++
			}
		}
		return n
	}
	for _, frontends := range []int{0, 1} {
		fresh := julyObs(frontends, func(*Campaign) {})
		if fresh == 0 {
			t.Fatalf("frontends=%d: a fresh campaign stored no July ECH observations", frontends)
		}
		for name, before := range map[string]func(*Campaign){
			"census":  func(c *Campaign) { c.RunValidationCensus(jan) },
			"ech-jan": func(c *Campaign) { c.RunHourlyECH(jan, 1) },
		} {
			if got := julyObs(frontends, before); got != fresh {
				t.Errorf("frontends=%d, after %s: %d July ECH observations, a fresh campaign stores %d",
					frontends, name, got, fresh)
			}
		}
	}
}

// TestPartitionByDayBoundaries pins the UTC day-bucketing: a point
// exactly at midnight belongs to the day it opens, and multi-day spans
// split into per-day groups preserving order.
func TestPartitionByDayBoundaries(t *testing.T) {
	day0 := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	points := []obs.Point{
		{At: day0, Label: "h0"},
		{At: day0.Add(23 * time.Hour), Label: "h23"},
		{At: day0.Add(24 * time.Hour), Label: "h24"}, // midnight: next day
		{At: day0.Add(47 * time.Hour), Label: "h47"},
		{At: day0.Add(48 * time.Hour), Label: "h48"},                  // third day
		{At: day0.Add(36*time.Hour + 30*time.Minute), Label: "h36.5"}, // mid-span, out of order on purpose
	}
	got := partitionByDay(points)
	if len(got) != 3 {
		t.Fatalf("partitioned into %d days, want 3", len(got))
	}
	labels := func(day time.Time) []string {
		var out []string
		for _, p := range got[day] {
			out = append(out, p.Label)
		}
		return out
	}
	if l := labels(day0); len(l) != 2 || l[0] != "h0" || l[1] != "h23" {
		t.Errorf("day 0 points = %v", l)
	}
	if l := labels(day0.AddDate(0, 0, 1)); len(l) != 3 || l[0] != "h24" || l[1] != "h47" || l[2] != "h36.5" {
		t.Errorf("day 1 points = %v", l)
	}
	if l := labels(day0.AddDate(0, 0, 2)); len(l) != 1 || l[0] != "h48" {
		t.Errorf("day 2 points = %v", l)
	}
}

// TestPipelinedAnomalyCaptureMatchesSerial is the anomaly tier's
// determinism proof: with tail-sampled tracing and SLO evaluation enabled
// on every per-day replica, a mixed racing fleet must still produce
// byte-identical stores — AnomalyCapture records included — for any
// day-worker count. The captures are assembled exclusively from
// schedule-independent inputs (winner-side client counters, SLO stats and
// trace flags), which is exactly what this test pins.
func TestPipelinedAnomalyCaptureMatchesSerial(t *testing.T) {
	cfg := CampaignConfig{
		Size: 500, Seed: 29,
		Start:             time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC),
		End:               time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC),
		StepDays:          7,
		DoHFrontends:      4,
		TransportMix:      transport.Mix{DoH: 2, DoT: 1, DoQ: 1},
		TransportStrategy: transport.StrategyRace,
		TelemetryInterval: time.Hour,
		AnomalyCapture:    true,
	}
	run := func(workers int) *Campaign {
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Cfg.DayWorkers = workers
		if err := c.RunDaily(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	pipelined := run(8)

	// Every scan day triggers a capture: negative answers are stable
	// events, and they fire in this configuration.
	days := serial.Store.Days("apex")
	if got := serial.Store.AnomalyDays(); len(got) != len(days) {
		t.Fatalf("anomaly captures for %d days, want %d", len(got), len(days))
	}
	capt, ok := serial.Store.AnomalyFor(days[0])
	if !ok {
		t.Fatalf("no anomaly capture for %s", days[0].Format("2006-01-02"))
	}
	if capt.Exchanges == 0 {
		t.Fatal("capture records no exchanges")
	}
	// A healthy world violates no objective and tail-retains no
	// winner-side anomalies; the racing fleet's race-flagged traces must
	// be masked out of the stored projection.
	if capt.Violations != 0 || capt.Errors != 0 || capt.StaleServed != 0 {
		t.Fatalf("healthy campaign reports anomalies: %+v", capt)
	}
	if len(capt.Traces) != 0 {
		t.Fatalf("dial-shape traces leaked into the store: %+v", capt.Traces)
	}
	if capt.Availability != 1 {
		t.Fatalf("availability = %v, want 1", capt.Availability)
	}
	keys := map[string]uint64{}
	for _, ev := range capt.Events {
		keys[ev.Key] = ev.Count
	}
	if keys["client.negative"] == 0 {
		t.Fatalf("capture misses the negative-answer events: %v", keys)
	}
	for k := range keys {
		if strings.HasPrefix(k, "strategy.") || strings.HasPrefix(k, "pool.") || strings.HasPrefix(k, "frontend.") {
			t.Fatalf("volatile event kind %q leaked into the capture", k)
		}
	}

	a, b := storeJSON(t, serial), storeJSON(t, pipelined)
	if !bytes.Equal(a, b) {
		t.Fatalf("anomaly-enabled pipelined store diverges from serial: %d vs %d bytes", len(a), len(b))
	}
}

// TestAnomalyTierRidesDayContextsOnly pins where the tier is wired: a
// day context's replica carries the tail-only tracer its capture bundle
// projects, and an hour context's carries none — RunHourlyECH snapshots
// registry counters and stores no captures — even with AnomalyCapture on.
// Without the flag no context carries the tier, and no context ever
// carries a flight recorder: captures count from the registry.
func TestAnomalyTierRidesDayContextsOnly(t *testing.T) {
	at := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	for _, capture := range []bool{true, false} {
		c, err := NewCampaign(CampaignConfig{
			Size: 300, Seed: 5, DoHFrontends: 2,
			TelemetryInterval: time.Hour, AnomalyCapture: capture,
		})
		if err != nil {
			t.Fatal(err)
		}
		day, hour := c.newDayContext(at), c.newHourContext(at)
		if day.fleet.Recorder != nil || day.fleet.Client.Recorder != nil {
			t.Errorf("AnomalyCapture=%v: day context carries a flight recorder", capture)
		}
		if got := day.fleet.Client.Tracer.TailEnabled(); got != capture {
			t.Errorf("AnomalyCapture=%v: day context has a tail tracer = %v", capture, got)
		}
		if tr := day.fleet.Client.Tracer.Start("probe.test."); tr != nil {
			t.Errorf("AnomalyCapture=%v: day context head-samples exchanges", capture)
		}
		if hour.fleet.Recorder != nil || hour.fleet.Client.Recorder != nil || hour.fleet.Client.Tracer != nil {
			t.Errorf("AnomalyCapture=%v: hour context carries the anomaly tier", capture)
		}
		if hour.sampler != nil || day.sampler == nil {
			t.Errorf("AnomalyCapture=%v: sampler on hour=%v day=%v, want day only",
				capture, hour.sampler != nil, day.sampler != nil)
		}
	}
}

// TestRunHourlyECHWithoutHoursScansNothing: a run of no hours issues no
// query and leaves the world clock where it was — the ECH discovery scan
// runs only when there is an hour to scan.
func TestRunHourlyECHWithoutHoursScansNothing(t *testing.T) {
	c, err := NewCampaign(CampaignConfig{Size: 300, Seed: 5, DoHFrontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries, now := c.World.Net.QueryCount(), c.World.Clock.Now()
	for _, days := range []int{0, -1} {
		c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), days)
	}
	if got := c.World.Net.QueryCount(); got != queries {
		t.Errorf("RunHourlyECH with no hours issued %d queries", got-queries)
	}
	if got := c.World.Clock.Now(); !got.Equal(now) {
		t.Errorf("RunHourlyECH with no hours moved the world clock from %v to %v", now, got)
	}
	if ech := c.Store.ECHObservations(); len(ech) != 0 {
		t.Errorf("RunHourlyECH with no hours stored %d observations", len(ech))
	}
}

// deadRecursor is a frontend handler whose recursor is down: every query
// is a hard failure.
type deadRecursor struct{}

func (deadRecursor) HandleDNS(*dnswire.Message) *dnswire.Message { return nil }

// TestAnomalyCaptureCountsEveryClientEvent drives one day context's fleet
// client through each event kind a capture stores — a negative answer, a
// stale serve and a failed exchange — and pins the capture's Events to the
// client's own counters, in key order.
func TestAnomalyCaptureCountsEveryClientEvent(t *testing.T) {
	day := time.Date(2023, 9, 6, 0, 0, 0, 0, time.UTC)
	c, err := NewCampaign(CampaignConfig{
		Size: 300, Seed: 5, DoHFrontends: 2,
		DoHStaleWindow: 7 * 24 * time.Hour, AnomalyCapture: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc := c.newDayContext(day)
	client := dc.fleet.Client

	// A negative answer: a name under no delegated TLD.
	if _, err := client.Query("no-such-name.invalid", dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	// A stale serve: cache a positive answer, step the day clock past its
	// TTL and take every frontend's recursor down.
	name := c.World.Tranco.ListFor(day)[0]
	resp, err := client.Query(name, dnswire.TypeNS, false)
	if err != nil {
		t.Fatal(err)
	}
	var ttl uint32
	for _, rr := range resp.Answer {
		ttl = max(ttl, rr.TTL)
	}
	client.Recycle(resp)
	if ttl == 0 {
		t.Fatalf("%s NS: no answer to cache", name)
	}
	dc.prober.(dayProber).clock.Advance(time.Duration(ttl+1) * time.Second)
	for _, fe := range dc.fleet.Frontends {
		fe.Handler = deadRecursor{}
	}
	if _, err := client.Query(name, dnswire.TypeNS, false); err != nil {
		t.Fatalf("stale serve: %v", err)
	}
	// A failed exchange: every frontend address unreachable.
	for _, ap := range dc.fleet.Addrs {
		c.World.Net.SetAddrDown(ap.Addr(), true)
	}
	if _, err := client.Query(name, dnswire.TypeA, false); err == nil {
		t.Fatal("exchange with every frontend down succeeded")
	}

	if client.Errors() == 0 || client.NegativeAnswers() == 0 || client.StaleAnswers() == 0 {
		t.Fatalf("client counted errors=%d negative=%d stale=%d, want each non-zero",
			client.Errors(), client.NegativeAnswers(), client.StaleAnswers())
	}
	capt := c.anomalyCapture(dc, day)
	if capt == nil {
		t.Fatal("no capture for a day with errors, negative and stale answers")
	}
	want := []dataset.AnomalyEvent{
		{Key: "client.error", Count: client.Errors()},
		{Key: "client.negative", Count: client.NegativeAnswers()},
		{Key: "client.stale", Count: client.StaleAnswers()},
	}
	if !reflect.DeepEqual(capt.Events, want) {
		t.Fatalf("capture events = %+v, want %+v", capt.Events, want)
	}
}
