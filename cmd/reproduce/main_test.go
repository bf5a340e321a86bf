package main

import (
	"strings"
	"testing"
)

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
