// Package render turns experiment results into aligned text tables, the
// terminal equivalents of the paper's figures.
package render

import (
	"fmt"
	"strings"
)

// Table renders rows under a header with aligned columns.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// SeriesTable renders several series sharing an x-axis as one table. Series
// may have different x grids; missing cells render blank.
func SeriesTable(xLabel string, series []Series, format string) string {
	if format == "" {
		format = "%.4g"
	}
	// Collect the union of x values, preserving first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	header := make([]string, 0, len(series)+1)
	header = append(header, xLabel)
	for _, s := range series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf(format, x))
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf(format, s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return Table(header, rows)
}
