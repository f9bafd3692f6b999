package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table renders experiment series the way the paper's figures tabulate
// them: one row per x-value (e.g. client count), one column per series
// (e.g. GPDB 5 vs GPDB 6).
type Table struct {
	Title  string
	XLabel string
	Series []string
	rows   []tableRow
}

type tableRow struct {
	x    string
	vals []float64
}

// NewTable creates a report table.
func NewTable(title, xlabel string, series ...string) *Table {
	return &Table{Title: title, XLabel: xlabel, Series: series}
}

// Add appends one x-row with a value per series.
func (t *Table) Add(x string, vals ...float64) {
	t.rows = append(t.rows, tableRow{x: x, vals: vals})
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.Title)
	header := fmt.Sprintf("%-14s", t.XLabel)
	for _, s := range t.Series {
		header += fmt.Sprintf("%16s", s)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.rows {
		line := fmt.Sprintf("%-14s", r.x)
		for _, v := range r.vals {
			line += fmt.Sprintf("%16.1f", v)
		}
		fmt.Fprintln(w, line)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

// Ms renders a duration in fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
