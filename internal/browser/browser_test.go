package browser

import (
	"testing"
)

// expected transcribes the paper's Table 6 (support matrix).
// Chromium pair = Chrome & Edge.
var expectedTable6 = map[string]map[string]Support{
	"{apex}": {
		"Chrome": SupportFull, "Safari": SupportPartial, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"http://{apex}": {
		"Chrome": SupportFull, "Safari": SupportPartial, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"https://{apex}": {
		"Chrome": SupportFull, "Safari": SupportFull, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"AliasMode TargetName": {
		"Chrome": SupportNone, "Safari": SupportFull, "Edge": SupportNone, "Firefox": SupportNone,
	},
	"ServiceMode TargetName": {
		"Chrome": SupportNone, "Safari": SupportFull, "Edge": SupportNone, "Firefox": SupportFull,
	},
	"port": {
		"Chrome": SupportNone, "Safari": SupportFull, "Edge": SupportNone, "Firefox": SupportFull,
	},
	"alpn": {
		"Chrome": SupportFull, "Safari": SupportFull, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"IP hints": {
		"Chrome": SupportNone, "Safari": SupportFull, "Edge": SupportNone, "Firefox": SupportFull,
	},
}

// expectedTable7 transcribes the paper's Table 7 (ECH support and
// failover). Safari is excluded in the paper for lack of any ECH support.
var expectedTable7 = map[string]map[string]Support{
	"Shared Mode Support": {
		"Chrome": SupportFull, "Edge": SupportFull, "Firefox": SupportFull, "Safari": SupportNone,
	},
	"(1) Unilateral ECH": {
		"Chrome": SupportFull, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"(2) Malformed ECH": {
		"Chrome": SupportNone, "Edge": SupportNone, "Firefox": SupportFull,
	},
	"(3) Mismatched key": {
		"Chrome": SupportFull, "Edge": SupportFull, "Firefox": SupportFull,
	},
	"Split Mode Support": {
		"Chrome": SupportNone, "Edge": SupportNone, "Firefox": SupportNone,
	},
}

func TestTable6Matrix(t *testing.T) {
	_, marks := RunMatrix("Table 6", Table6Scenarios(), All())
	for row, want := range expectedTable6 {
		got, ok := marks[row]
		if !ok {
			t.Errorf("scenario %q missing", row)
			continue
		}
		for browserName, wantMark := range want {
			if got[browserName] != wantMark {
				t.Errorf("Table 6 %q / %s = %v, paper says %v",
					row, browserName, got[browserName].Mark(), wantMark.Mark())
			}
		}
	}
}

func TestTable7Matrix(t *testing.T) {
	_, marks := RunMatrix("Table 7", Table7Scenarios(), All())
	for row, want := range expectedTable7 {
		got, ok := marks[row]
		if !ok {
			t.Errorf("scenario %q missing", row)
			continue
		}
		for browserName, wantMark := range want {
			if got[browserName] != wantMark {
				t.Errorf("Table 7 %q / %s = %v, paper says %v",
					row, browserName, got[browserName].Mark(), wantMark.Mark())
			}
		}
	}
}

func TestFailoverBehaviours(t *testing.T) {
	_, marks := RunMatrix("failover", FailoverScenarios(), All())
	// Port failover: server only on 443 while the record says 8443.
	// Chrome/Edge ignore the port parameter and dial 443 → success;
	// Safari/Firefox fail on 8443 then fall back to 443 → success.
	for _, b := range []string{"Chrome", "Safari", "Edge", "Firefox"} {
		if marks["port failover (server on 443 only)"][b] != SupportFull {
			t.Errorf("port failover (443 only): %s failed", b)
		}
	}
	// Hint-only server: Chrome/Edge hard-fail (they only use A records).
	hintOnly := marks["IP hint failover (server on hint addr only)"]
	for _, b := range []string{"Chrome", "Edge"} {
		if hintOnly[b] != SupportNone {
			t.Errorf("hint-only server: %s should hard-fail", b)
		}
	}
	for _, b := range []string{"Safari", "Firefox"} {
		if hintOnly[b] != SupportFull {
			t.Errorf("hint-only server: %s should connect via hint", b)
		}
	}
	// A-only server: Safari/Firefox fail over from the hint to A.
	aOnly := marks["IP hint failover (server on A addr only)"]
	for _, b := range []string{"Safari", "Firefox"} {
		if aOnly[b] != SupportFull {
			t.Errorf("A-only server: %s should fail over to the A address", b)
		}
	}
	for _, b := range []string{"Chrome", "Edge"} {
		if aOnly[b] != SupportFull {
			t.Errorf("A-only server: %s connects directly via A", b)
		}
	}
}

func TestSplitModeErrorCode(t *testing.T) {
	// The paper reports ERR_ECH_FALLBACK_CERTIFICATE_INVALID in
	// Chrome/Edge for split mode.
	scenarios := Table7Scenarios()
	var split Scenario
	for _, sc := range scenarios {
		if sc.Row == "Split Mode Support" {
			split = sc
		}
	}
	l := NewLab()
	split.Build(l)
	v := l.Visit(chrome(), split.URL)
	if v.OK {
		t.Fatal("split mode unexpectedly succeeded")
	}
	if v.ErrCode != ErrECHFallbackCertInvalid {
		t.Errorf("error = %q, want %q", v.ErrCode, ErrECHFallbackCertInvalid)
	}
}

func TestCorrectClientWouldHandleSplitMode(t *testing.T) {
	// A hypothetical spec-complete client (re-resolving public_name)
	// succeeds in split mode — demonstrating the failure is a client
	// gap, not a server misconfiguration.
	scenarios := Table7Scenarios()
	var split Scenario
	for _, sc := range scenarios {
		if sc.Row == "Split Mode Support" {
			split = sc
		}
	}
	b := firefox()
	b.Name = "SpecComplete"
	b.ECHSplitModeRequery = true
	l := NewLab()
	split.Build(l)
	v := l.Visit(b, split.URL)
	if !v.OK || !v.ECHUsed {
		t.Errorf("spec-complete client failed split mode: %v", v)
	}
	if v.ConnectedTo.Addr() != l.Web2 {
		t.Errorf("spec-complete client connected to %v, want client-facing %v",
			v.ConnectedTo.Addr(), l.Web2)
	}
}

func TestSafariNoECHOffered(t *testing.T) {
	scenarios := Table7Scenarios()
	l := NewLab()
	scenarios[0].Build(l)
	v := l.Visit(safari(), "https://a.com")
	for _, a := range v.Attempts {
		if a.ECHOffered {
			t.Error("Safari offered ECH")
		}
	}
	if !v.OK {
		t.Errorf("Safari should still connect with standard TLS: %v", v)
	}
}

func TestVisitResultString(t *testing.T) {
	l := NewLab()
	basicSetup(l)
	v := l.Visit(chrome(), "https://a.com")
	if v.String() == "" {
		t.Error("empty String()")
	}
}

func TestFirefoxDualALPNAnnotation(t *testing.T) {
	// Behaviour flags the paper text describes are present on the
	// profiles (used by documentation output).
	if !firefox().ALPNDualFallback || !firefox().DelayedAddrFailover || !firefox().RequiresDoH {
		t.Error("Firefox profile missing behavioural annotations")
	}
	if chrome().UsesIPHints || edge().UsesPort {
		t.Error("Chromium profile wrongly supports hints/port")
	}
}

// TestFirefoxRoutesHTTPSOverDoHStub checks the lab's encrypted-transport
// config: with EnableDoH, a RequiresDoH browser (Firefox) sends its
// HTTPS-RR queries through the transport frontend — and still lands the
// same navigation outcome — while Chrome (no DoH requirement) keeps
// talking to the resolver directly.
func TestFirefoxRoutesHTTPSOverDoHStub(t *testing.T) {
	l := NewLab()
	Table6Scenarios()[2].Build(l) // https://a.com basic setup
	fl := l.EnableDoH()

	v := l.Visit(firefox(), "https://a.com")
	if !v.OK || v.Scheme != "https" {
		t.Fatalf("Firefox visit over DoH failed: %+v", v)
	}
	served := fl.TotalStats().Served
	if served == 0 {
		t.Fatal("DoH frontend saw no HTTPS-RR traffic from Firefox")
	}

	// Chrome does not require DoH: the stub stays idle.
	v = l.Visit(chrome(), "https://a.com")
	if !v.OK {
		t.Fatalf("Chrome visit failed: %+v", v)
	}
	if fl.TotalStats().Served != served {
		t.Error("non-DoH browser leaked queries into the DoH stub")
	}

	// A second Firefox visit is absorbed by the stub's answer cache.
	if _, err := fl.Client.Query("a.com", 65, false); err != nil {
		t.Fatalf("direct stub query failed: %v", err)
	}
	if fl.TotalStats().CacheHits == 0 {
		t.Error("lab DoH cache absorbed nothing across visits")
	}
}

// TestTable6MatrixUnchangedOverDoH re-runs the Table 6 scenarios with the
// DoH stub enabled for every lab: the encrypted transport must be
// invisible to the support matrix (the paper's Firefox column was
// measured with DoH configured).
func TestTable6MatrixUnchangedOverDoH(t *testing.T) {
	for _, sc := range Table6Scenarios() {
		l := NewLab()
		sc.Build(l)
		l.EnableDoH()
		v := l.Visit(firefox(), sc.URL)
		got := sc.Classify(l, v)
		if want := expectedTable6[sc.Row]["Firefox"]; got != want {
			t.Errorf("%s: Firefox over DoH = %v, want %v", sc.Row, got, want)
		}
	}
}
