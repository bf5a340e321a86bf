package main

import (
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json's rules for names and units (ASCII only: "us", not "µs").
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validMetricName(s string) bool { return metricNameRE.MatchString(s) }
func validUnit(s string) bool       { return metricUnitRE.MatchString(s) }

func TestMetricNamesAndUnits(t *testing.T) {
	for _, ok := range []string{"setup_s", "transport.self_pct", "p99-us", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "has space", "µs", "a/b", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if validUnit("µs") || !validUnit("op/s") || !validUnit("%") {
		t.Error("unit rule: want ASCII units such as op/s and %, not µs")
	}
	seen := map[string]bool{}
	for _, spec := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !validMetricName(spec.name) || !validUnit(spec.unit) {
			t.Errorf("metric %q (%q) breaks the naming rules", spec.name, spec.unit)
		}
		if seen[spec.name] {
			t.Errorf("metric %q declared twice", spec.name)
		}
		seen[spec.name] = true
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness to
// each other: same workloads, same metric names and units, both ways.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(shapes))
	}
	for i, w := range bf.Workloads {
		if w.Name != shapes[i].name || w.Why != shapes[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, w.Name, w.Why, shapes[i].name, shapes[i].why)
		}
	}
	compare := func(phase string, declared []declaredMetric, specs []metricSpec) {
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %q: better = %q", phase, d.Name, d.Better)
			}
		}
		for _, s := range specs {
			if u, ok := units[s.name]; !ok {
				t.Errorf("%s: harness reports %q, BENCHMARK.json does not declare it", phase, s.name)
			} else if u != s.unit {
				t.Errorf("%s %q: unit %q in the harness, %q in BENCHMARK.json", phase, s.name, s.unit, u)
			}
			delete(units, s.name)
		}
		for name := range units {
			t.Errorf("%s: BENCHMARK.json declares %q, the harness does not report it", phase, name)
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
