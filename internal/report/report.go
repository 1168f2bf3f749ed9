// Package report renders the regenerated tables and figure series as
// aligned text, in the same rows/columns the paper's tables and plot
// legends use.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table writes an aligned text table with a header row and a rule.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = pad(cell, widths[i])
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one line of a figure: a label and (x, y) points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure writes a figure's series as a column-per-series table keyed by x,
// matching how the paper's plots read as data.
func Figure(w io.Writer, title, xName string, series []Series) {
	if len(series) == 0 {
		return
	}
	headers := []string{xName}
	for _, s := range series {
		headers = append(headers, s.Label)
	}
	// Collect x values from the first series (all series share the grid).
	rows := make([][]string, len(series[0].X))
	for i := range rows {
		row := []string{trimFloat(series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, trimFloat(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows[i] = row
	}
	Table(w, title, headers, rows)
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// GBps formats a bytes/second rate in decimal GB/s.
func GBps(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f", bytesPerSec/1e9)
}
