package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkloadBothPhases runs every workload at smoke size
// through both phases in this process: every interposer, probe and output
// check executes, and each phase must print exactly the metrics it
// declares. No timing is asserted.
func TestSmokeEveryWorkloadBothPhases(t *testing.T) {
	out := t.TempDir()
	for _, sh := range shapes {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			var buf bytes.Buffer
			opt := options{workload: sh.name, seed: 7, seconds: 15, trace: trace, smoke: true, outDir: out}
			if err := run(opt, &buf); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", sh.name, trace, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", sh.name, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", sh.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", sh.name, trace, len(line.Metrics), len(specs))
			}
			for _, spec := range specs {
				if m, ok := line.Metrics[spec.name]; !ok || m.Unit != spec.unit {
					t.Errorf("%s trace=%d: metric %q missing or unit %q != %q", sh.name, trace, spec.name, m.Unit, spec.unit)
				}
			}
			if trace == 0 {
				for _, spec := range specs {
					if line.Metrics[spec.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %q = %v, must never be 0", sh.name, spec.name, line.Metrics[spec.name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+sh.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sh.name, err)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if err := run(options{workload: "no-such", seed: 7, seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
