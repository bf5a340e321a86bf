package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// result is one workload's outcome in one phase. samples holds, per
// metric, one value per repetition; the reported value is their median.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	specs     []metricSpec
	samples   map[string][]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric by name with its unit and spread, then the
// result line.
func (r result) print(w io.Writer) error {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, spec := range r.specs {
		xs, ok := r.samples[spec.name]
		if !ok || len(xs) == 0 {
			return fmt.Errorf("no value for declared metric %q", spec.name)
		}
		lo, hi := minMax(xs)
		fmt.Fprintf(w, "%-36s %14.6g %-5s (min %.6g, max %.6g, n=%d)\n", spec.name, median(xs), spec.unit, lo, hi, len(xs))
		line.Metrics[spec.name] = metricValue{Value: median(xs), Unit: spec.unit}
	}
	if len(r.samples) != len(r.specs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.samples), len(r.specs))
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}

// runChild runs one workload in a fresh process of this binary, echoing
// its output, and returns its result line. The parent waits for the child
// before starting the next, so at most P threads are busy at a time.
func runChild(opt options, workload string, stdout io.Writer) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(opt.trace),
		"-out", opt.outDir,
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return line, fmt.Errorf("workload %s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("workload %s: last output line is not a result: %w", workload, err)
	}
	return line, nil
}

// runSuite runs every workload, one child process each; with -repeat it
// runs the suite twice and compares the two.
func runSuite(opt options, stdout io.Writer) error {
	// Read the bounds first: a missing BENCHMARK.json should not surface
	// after two passes of the suite.
	var bounds map[string]declaredMetric
	if opt.repeat {
		var err error
		if bounds, err = loadBounds(); err != nil {
			return fmt.Errorf("-repeat needs the bounds (run from the benchmark's directory, as go run -C bench does): %w", err)
		}
	}
	pass := func() (map[string]resultLine, error) {
		out := map[string]resultLine{}
		for _, sh := range shapes {
			line, err := runChild(opt, sh.name, stdout)
			if err != nil {
				return nil, err
			}
			out[sh.name] = line
		}
		return out, nil
	}
	first, err := pass()
	if err != nil || !opt.repeat {
		return err
	}
	second, err := pass()
	if err != nil {
		return err
	}
	return compareRuns(first, second, bounds, stdout)
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON is where the contract sits relative to the benchmark's
// directory, which is the working directory under `go run -C bench` and
// under `go test`.
const benchmarkJSON = "../BENCHMARK.json"

func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	return bf, nil
}

func loadBounds() (map[string]declaredMetric, error) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return nil, err
	}
	out := map[string]declaredMetric{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// worsening is how far `second` is worse than `first`, as a share of
// first, given which direction is better (negative: it improved).
func worsening(first, second float64, better string) float64 {
	d := (second - first) / first
	if better == "higher" {
		d = -d
	}
	return d
}

// compareRuns prints, per workload and end-to-end metric, both runs'
// values, how much worse the second is, and the bound; it fails if any
// pair disagrees by more than the metric's bound in either direction —
// two runs of the same code have no better or worse side.
func compareRuns(first, second map[string]resultLine, bounds map[string]declaredMetric, w io.Writer) error {
	fmt.Fprintf(w, "\n| workload | metric | run 1 | run 2 | worse by | bound |\n| --- | --- | --- | --- | --- | --- |\n")
	var bad []string
	for _, sh := range shapes {
		for _, spec := range endToEnd {
			a, b := first[sh.name].Metrics[spec.name].Value, second[sh.name].Metrics[spec.name].Value
			decl := bounds[spec.name]
			d := worsening(a, b, decl.Better)
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %+.2f%% | %.1f%% |\n", sh.name, spec.name, a, b, 100*d, 100*decl.Bound)
			// Written so that a NaN or infinite difference (a median of 0,
			// a metric missing from a result line) fails too.
			if !(math.Abs(d) <= decl.Bound) {
				bad = append(bad, sh.name+"/"+spec.name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("runs of the same code disagree beyond the bound on: %s", strings.Join(bad, ", "))
	}
	return nil
}
