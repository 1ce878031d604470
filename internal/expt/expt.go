// Package expt contains the experiment harness: one runnable experiment per
// figure/scenario of the paper, as indexed in DESIGN.md §4 (E1–E15). Each
// experiment is a pure function from a typed config (with a seed) to a
// typed result, so the same code backs the unit tests that assert the
// paper's qualitative claims, the cmd/eona-bench binary that regenerates the
// tables in EXPERIMENTS.md, and TestSeed1TablesGolden, which pins those
// tables' seed-1 bytes.
package expt

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry the paper-claim context printed under the table.
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v (floats with
// Cell for formatting control).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Cell formats a float at a sensible experiment precision.
func Cell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
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
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
