package analysis

import (
	"strings"
	"testing"
	"time"
)

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxxxxx", "1"}, {"y", "22"}},
	}
	out := tab.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 data rows
		t.Fatalf("lines = %d", len(lines))
	}
	// All data lines equal width (aligned columns).
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("misaligned header/separator: %q vs %q", lines[1], lines[2])
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Error("title missing")
	}
}

func TestSeriesTableSampling(t *testing.T) {
	s := Series{Name: "v"}
	base := time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		s.Points = append(s.Points, Point{base.AddDate(0, 0, i), float64(i)})
	}
	tab := SeriesTable("x", 10, s)
	if len(tab.Rows) > 10 {
		t.Errorf("rows = %d, want ≤ 10", len(tab.Rows))
	}
	// Empty series doesn't panic.
	empty := SeriesTable("y", 10, Series{Name: "e"})
	if len(empty.Rows) != 0 {
		t.Error("empty series produced rows")
	}
	// Ragged series render dashes, not panic.
	short := Series{Name: "s", Points: s.Points[:5]}
	ragged := SeriesTable("z", 0, s, short)
	if len(ragged.Rows) != 100 {
		t.Errorf("unsampled rows = %d", len(ragged.Rows))
	}
}

func TestMeanStd(t *testing.T) {
	m, sd := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %f", m)
	}
	if sd < 1.99 || sd > 2.01 {
		t.Errorf("std = %f, want 2", sd)
	}
	if m, sd := meanStd(nil); m != 0 || sd != 0 {
		t.Error("empty meanStd not zero")
	}
}

func TestPctAndHelpers(t *testing.T) {
	if pct(1, 4) != 25 || pct(1, 0) != 0 {
		t.Error("pct wrong")
	}
	if fmtPct(12.345) != "12.35%" {
		t.Errorf("fmtPct = %s", fmtPct(12.345))
	}
	// Two decimals, rounded, sign kept: 0.29 and 2.3 are not truncated
	// through their float error, and a value in (-1, 0) keeps its sign.
	for v, want := range map[float64]string{6.57: "6.57", 0.29: "0.29", 2.3: "2.30", -0.5: "-0.50", 0: "0.00"} {
		if got := fmtFloat(v); got != want {
			t.Errorf("fmtFloat(%v) = %s, want %s", v, got, want)
		}
	}
}
