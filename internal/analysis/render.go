package analysis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Point is one (date, value) sample of a time series.
type Point struct {
	Date  time.Time
	Value float64
}

// Series is a named time series (one line of a figure).
type Series struct {
	Name   string
	Points []Point
}

// SeriesTable renders several series side by side, sampling at most
// maxRows dates.
func SeriesTable(title string, maxRows int, series ...Series) *Table {
	t := &Table{Title: title, Columns: []string{"date"}}
	for _, s := range series {
		t.Columns = append(t.Columns, s.Name)
	}
	if len(series) == 0 || len(series[0].Points) == 0 {
		return t
	}
	n := len(series[0].Points)
	step := 1
	if maxRows > 0 && n > maxRows {
		step = (n + maxRows - 1) / maxRows
	}
	for i := 0; i < n; i += step {
		row := []string{series[0].Points[i].Date.Format("2006-01-02")}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.2f", s.Points[i].Value))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// meanStd computes the mean and standard deviation of values.
func meanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		std += (v - mean) * (v - mean)
	}
	std /= float64(len(values))
	return mean, math.Sqrt(std)
}
