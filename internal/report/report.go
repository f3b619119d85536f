// Package report renders experiment results: CSV for external plotting,
// markdown tables for EXPERIMENTS.md, and ASCII bar/line charts so
// cmd/experiments can draw the paper's figures directly in a terminal.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple labelled grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row (values are formatted with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// CSV writes the table as comma-separated values. A table with no
// Columns writes rows only, so streaming writers can emit the header
// once and append row batches.
func (t *Table) CSV(w io.Writer) error {
	if len(t.Columns) > 0 {
		if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Markdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	_, err := fmt.Fprintln(w)
	return err
}

// BarChart renders labelled horizontal bars scaled to width characters,
// in the style of the paper's normalised-runtime figures.
type BarChart struct {
	Title string
	Width int // bar area width in characters (default 40)
}

// Render draws one bar per (label, value) pair; values are normalised to
// the maximum.
func (b BarChart) Render(w io.Writer, labels []string, values []float64) {
	width := b.Width
	if width <= 0 {
		width = 40
	}
	if b.Title != "" {
		fmt.Fprintf(w, "%s\n", b.Title)
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		maxV = math.Max(maxV, v)
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for i, v := range values {
		n := int(math.Round(v / maxV * float64(width)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %-*s %s %.3f\n", maxL, labels[i], strings.Repeat("#", n), v)
	}
}
