// Command reproduce regenerates every table and figure of the paper's
// evaluation from a fresh simulated campaign.
//
// Usage:
//
//	reproduce [-size N] [-seed S] [-step D] [-workers W]
//	          [-frontends N] [-mix doh|dot|doq|mixed]
//	          [-strategy serial|race] [-minobs N]
//	          [-exp all|fig2|tab2|tab3|fig3|
//	          intermittency|tab4|tab5|params|tab8|fig11|fig12|connectivity|
//	          fig13|fig4|fig5|tab9|fig14|fig8|stalecorr|timeline|slo|
//	          tab6|tab7|failover]
//
// Larger -size values converge the percentages to the paper's (the
// non-Cloudflare population floor dominates below ~90k domains); -step
// trades trend resolution for runtime; -workers pipelines that many scan
// days concurrently, and as many hours of the hourly ECH rotation scans
// (results are identical for any value); -frontends routes every scan
// through an encrypted-DNS serving fleet with the -mix protocol split and
// the -strategy resolution strategy (results are again identical — the
// serving layer is transparent to the measurements, whichever frontend
// wins each exchange). An unknown -exp id exits 2 listing the valid ids.
//
// -minobs sweeps the §4.2.3 intermittency classification gate: domains
// observed on fewer in-list days are skipped (reported as sparse) rather
// than classified. -exp stalecorr emits the §4.4.2 staleness/ECH
// correlation table, joining per-day serving snapshots (needs
// -frontends) against the hourly ECH scans.
//
// -exp timeline renders the campaign's telemetry time-series: the fleet
// registry's stable per-exchange metrics sampled at every scan-stage
// boundary (plus hourly samples during the ECH rotation experiment when
// that also runs). It needs a fleet; selecting it explicitly with
// -frontends 0 auto-enables 4 frontends. The curves are deterministic
// for a seed and identical for any -workers value.
//
// -exp slo turns on the campaign's anomaly tier on every per-day fleet
// replica — a tracer whose tail ring keeps anomalous exchanges from their
// outcomes (no extra tracing) and the obs.DefaultSLO objectives, both at
// their obs defaults — and renders the per-day anomaly-capture table: the
// stable SLO verdict plus the day's client error, negative and stale
// counts. The hourly ECH scans store no captures and
// carry no tier. Like timeline it needs a fleet and auto-enables 4
// frontends when selected explicitly; the captures are identical for any
// -workers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/providers"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and writes their tables to
// stdout; progress, timings and errors go to stderr. It returns the exit
// status: 2 for a fault in the command line, 1 for a failed campaign.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 10_000, "Tranco list size of the generated world")
	seed := fs.Int64("seed", 2024, "generation seed")
	step := fs.Int("step", 7, "scan every Nth day")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"scan days, and hourly ECH scan hours, resolved concurrently (1 = serial; results are identical)")
	frontends := fs.Int("frontends", 0, "encrypted-DNS frontends to scan through (0: direct stub queries)")
	mixFlag := fs.String("mix", "doh", "frontend protocol mix (with -frontends): doh, dot, doq, mixed, or weights")
	strategyFlag := fs.String("strategy", "serial", "resolution strategy (with -frontends): serial or race")
	minObs := fs.Int("minobs", analysis.DefaultIntermittencyMinObs,
		"intermittency classification gate: minimum observed in-list days")
	exp := fs.String("exp", "all", "experiment selector (comma-separated ids or 'all')")
	quiet := fs.Bool("q", false, "suppress per-day progress")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the fault and the usage
	}

	want, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sel := func(id string) bool { return want["all"] || want[id] }
	// The telemetry timeline needs a fleet for its registry; explicit
	// selection turns one on rather than rendering an empty table (under
	// "all" it simply rides whatever -frontends says).
	if want["timeline"] && *frontends == 0 {
		fmt.Fprintln(stderr, "timeline: enabling 4 frontends (the telemetry series need a fleet)")
		*frontends = 4
	}
	if want["slo"] && *frontends == 0 {
		fmt.Fprintln(stderr, "slo: enabling 4 frontends (anomaly captures need a fleet)")
		*frontends = 4
	}

	mix, err := transport.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	strategy, err := transport.ParseStrategy(*strategyFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if slices.ContainsFunc(serverExperiments, sel) {
		cfg := core.CampaignConfig{Size: *size, Seed: *seed, StepDays: *step, DayWorkers: *workers,
			HourWorkers: *workers, DoHFrontends: *frontends, TransportMix: mix, TransportStrategy: strategy}
		if !*quiet {
			cfg.Progress = stderr
		}
		if err := runServerSide(stdout, stderr, cfg, *minObs, sel); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
	}
	if slices.ContainsFunc(clientExperiments, sel) {
		runClientSide(stdout, sel)
	}
	return 0
}

// The -exp ids in usage order: the server-side experiments read the daily
// campaign's store, the client-side ones run the browser lab.
var (
	serverExperiments = []string{"fig2", "tab2", "tab3", "fig3", "intermittency", "tab4",
		"tab5", "params", "tab8", "fig11", "fig12", "connectivity", "fig13", "fig4",
		"fig5", "tab9", "fig14", "fig8", "stalecorr", "timeline", "slo"}
	clientExperiments = []string{"tab6", "tab7", "failover"}
)

// parseExperiments splits a comma-separated -exp value into the set of
// selected ids ("all" selects every one); an unknown id is an error
// listing the valid ones.
func parseExperiments(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.Contains(serverExperiments, id) && !slices.Contains(clientExperiments, id) {
			return nil, fmt.Errorf("reproduce: unknown -exp id %q (valid: all, %s, %s)", id,
				strings.Join(serverExperiments, ", "), strings.Join(clientExperiments, ", "))
		}
		want[id] = true
	}
	return want, nil
}

// runServerSide runs the daily campaign cfg describes, and the hourly ECH
// and validation experiments when selected, then writes every selected
// server-side table to w.
func runServerSide(w, stderr io.Writer, cfg core.CampaignConfig, minObs int, sel func(string) bool) error {
	frontends := cfg.DoHFrontends
	if sel("timeline") && frontends > 0 {
		cfg.TelemetryInterval = time.Hour
	}
	if sel("slo") && frontends > 0 {
		cfg.AnomalyCapture = true
	}
	// Reports are strategy-tagged when a fleet is in the loop, so runs
	// through different resolution strategies are distinguishable.
	fleet := ""
	if frontends > 0 {
		fleet = fmt.Sprintf(" frontends=%d mix=%s strategy=%s", frontends, cfg.TransportMix, cfg.TransportStrategy)
	}
	fmt.Fprintf(stderr, "building world: size=%d seed=%d step=%dd workers=%d%s\n",
		cfg.Size, cfg.Seed, cfg.StepDays, cfg.DayWorkers, fleet)
	c, err := core.NewCampaign(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := c.RunDaily(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "daily campaign done in %v (%d DNS queries)\n",
		time.Since(start).Round(time.Second), c.World.Net.QueryCount())

	if sel("fig4") || sel("stalecorr") {
		c.RunHourlyECH(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC), 7)
	}
	if sel("tab9") {
		c.RunValidationCensus(time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC))
	}

	st := c.Store
	phase1, phase2 := analysis.OverlappingSets(st)

	print := func(id string, tables ...*analysis.Table) {
		if !sel(id) {
			return
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.Format())
		}
	}

	if sel("fig2") {
		print("fig2", analysis.Adoption(st).Tables()...)
	}
	print("tab2", analysis.NSCategories(st, nil).Table("dynamic"),
		analysis.NSCategories(st, phase2).Table("overlapping"))
	nonCF := analysis.NonCFProviders(st, nil)
	print("tab3", nonCF.Table(10))
	print("fig3", analysis.SeriesTable("Fig 3: distinct non-Cloudflare providers with HTTPS RR", 20, nonCF.DailyDistinct))
	if sel("intermittency") {
		inter := analysis.IntermittencyMinObs(st, minObs)
		fmt.Fprintln(w, inter.Table().Format())
		if inter.MinObservations > analysis.DefaultIntermittencyMinObs {
			fmt.Fprintf(w, "intermittency gate: minobs=%d skipped %d sparse histories\n\n",
				inter.MinObservations, inter.SparseSkipped)
		}
	}
	print("tab4", analysis.DefaultVsCustom(st, nil).Table("dynamic"),
		analysis.DefaultVsCustom(st, phase2).Table("overlapping"))
	if sel("tab5") {
		google := analysis.ProviderParams(st, "Google")
		godaddy := analysis.ProviderParams(st, "GoDaddy")
		fmt.Fprintln(w, analysis.Table5(google, godaddy).Format())
	}
	print("params", analysis.SvcParams(st, "apex").Table("apex"),
		analysis.SvcParams(st, "www").Table("www"))
	print("tab8", analysis.ALPN(st, "apex", phase2, providers.H3Draft29SunsetDate).Table(),
		analysis.ALPN(st, "www", phase2, providers.H3Draft29SunsetDate).Table())
	if sel("fig11") {
		print("fig11", analysis.HintUsage(st, "apex").Tables()...)
	}
	print("fig12", analysis.MismatchDurations(st, "apex").Table())
	print("connectivity", analysis.Connectivity(st).Table())
	print("fig13", analysis.ECHDeployment(st, nil).Table())
	print("fig4", analysis.ECHRotation(st).Table())
	if sel("fig5") {
		for _, t := range analysis.Signed(st, nil).Tables("dynamic") {
			fmt.Fprintln(w, t.Format())
		}
		for _, t := range analysis.Signed(st, phase2).Tables("overlapping") {
			fmt.Fprintln(w, t.Format())
		}
	}
	print("tab9", analysis.Census(st).Table())
	print("stalecorr", analysis.StaleECHCorrelation(st).Table())
	if sel("timeline") && frontends > 0 {
		fmt.Fprintln(w, analysis.TelemetryTimeline(st, "daily").Format())
		if sel("fig4") || sel("stalecorr") {
			fmt.Fprintln(w, analysis.TelemetryTimeline(st, "hourly-ech").Format())
		}
	}
	if sel("slo") && frontends > 0 {
		fmt.Fprintln(w, analysis.AnomalyReport(st).Format())
	}
	print("fig14", analysis.SignedECH(st, nil).Table())
	if sel("fig8") {
		stats := analysis.RankDistributions(st, phase1)
		stats = append(stats, analysis.NonCFRankings(st))
		fmt.Fprintln(w, analysis.RankTable("Fig 8/9: rank distributions", stats...).Format())
	}
	return nil
}

// runClientSide runs the selected browser-lab experiments and writes their
// tables to w.
func runClientSide(w io.Writer, sel func(string) bool) {
	behaviors := browser.All()
	if sel("tab6") {
		t, _ := browser.RunMatrix("Table 6: browser HTTPS RR support", browser.Table6Scenarios(), behaviors)
		fmt.Fprintln(w, t.Format())
	}
	if sel("tab7") {
		t, _ := browser.RunMatrix("Table 7: browser ECH support and failover", browser.Table7Scenarios(), behaviors)
		fmt.Fprintln(w, t.Format())
	}
	if sel("failover") {
		t, _ := browser.RunMatrix("§5.2.2: failover behaviours", browser.FailoverScenarios(), behaviors)
		fmt.Fprintln(w, t.Format())
	}
}
