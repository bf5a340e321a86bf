package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// TestReportDigest pins the report: the stdout of -size 300 -exp all -q,
// every server-side table and the browser lab's. A change that moves a line
// of it moves this digest; such a change names the line and the fix that
// moved it. CI pins the size-2000, step-3 report the same way.
func TestReportDigest(t *testing.T) {
	const want = "954945b1ede7a6fe7e892d96bf21c65f5d8f63e9fb36bf4d20ee04016faa6be6"
	var out bytes.Buffer
	if status := run(strings.Fields("-size 300 -exp all -q"), &out, io.Discard); status != 0 {
		t.Fatalf("exit status %d", status)
	}
	if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("report sha256 %x, want %s; the report:\n%s", sum, want, out.String())
	}
}

// TestParseExperiments: the id table drives the -exp validation; an
// unknown or empty id is rejected with every valid id listed.
func TestParseExperiments(t *testing.T) {
	for _, spec := range []string{"all", "fig2, tab6", "slo", "tab6,tab7,failover"} {
		want, err := parseExperiments(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		ids := strings.Split(spec, ",")
		for _, id := range ids {
			if !want[strings.TrimSpace(id)] {
				t.Errorf("%q: %s not selected", spec, id)
			}
		}
		if len(want) != len(ids) {
			t.Errorf("%q: selected %v", spec, want)
		}
	}
	for _, spec := range []string{"fig99", "fig2,fig99", "", "fig2,"} {
		_, err := parseExperiments(spec)
		if err == nil {
			t.Fatalf("%q: accepted", spec)
		}
		for _, id := range append(serverExperiments, clientExperiments...) {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("%q: error %q does not list %s", spec, err, id)
			}
		}
	}
}
