package patch

import (
	"encoding/json"
	"fmt"
	"io"

	"patch/internal/report"
)

// An Emitter receives sweep cells as they complete. Sweep guarantees
// cells arrive in matrix expansion order (Index 0, 1, 2, ...), so
// emitters can stream without buffering. Begin is called once with the
// total cell count before any cell; End is called exactly once after
// the last — including when the sweep fails or is cancelled, so
// streaming formats can terminate cleanly (output may then cover only
// a prefix of the cells).
type Emitter interface {
	Begin(cells int) error
	Cell(c CellResult) error
	End() error
}

// cellColumns names the flat per-cell record shared by the CSV, JSON
// and markdown emitters.
var cellColumns = []string{
	"label", "workload", "cores", "bandwidth", "coarseness", "seeds",
	"runtime_mean", "runtime_ci95", "bytes_per_miss_mean", "bytes_per_miss_ci95",
	"avg_miss_latency", "dropped_direct",
}

// cellValues flattens one cell into the cellColumns record.
func cellValues(c CellResult) []any {
	bw := "default"
	switch {
	case c.Config.UnboundedBandwidth:
		bw = "unbounded"
	case c.Config.BandwidthBytesPerKiloCycle > 0:
		bw = fmt.Sprintf("%d", c.Config.BandwidthBytesPerKiloCycle)
	}
	var lat, dropped float64
	for _, r := range c.Summary.Results {
		lat += r.AvgMissLatency / float64(len(c.Summary.Results))
		dropped += float64(r.DroppedDirectRequests) / float64(len(c.Summary.Results))
	}
	return []any{
		c.Label, c.Config.Workload, c.Config.Cores, bw, c.Config.DirectoryCoarseness,
		c.Summary.Runtime.N,
		c.Summary.Runtime.Mean, c.Summary.Runtime.CI95,
		c.Summary.BytesPerMiss.Mean, c.Summary.BytesPerMiss.CI95,
		lat, dropped,
	}
}

// CSVEmitter streams one comma-separated row per cell.
type CSVEmitter struct {
	W io.Writer

	table report.Table
}

func (e *CSVEmitter) Begin(int) error {
	e.table = report.Table{Columns: cellColumns}
	return e.table.CSV(e.W) // header
}

func (e *CSVEmitter) Cell(c CellResult) error {
	e.table.Columns, e.table.Rows = nil, nil
	e.table.AddRow(cellValues(c)...)
	return e.table.CSV(e.W)
}

func (e *CSVEmitter) End() error { return nil }

// JSONEmitter streams a JSON array of cell records.
type JSONEmitter struct {
	W io.Writer

	n int
}

func (e *JSONEmitter) Begin(int) error {
	e.n = 0
	_, err := io.WriteString(e.W, "[")
	return err
}

func (e *JSONEmitter) Cell(c CellResult) error {
	values := cellValues(c)
	rec := make(map[string]any, len(cellColumns))
	for i, n := range cellColumns {
		rec[n] = values[i]
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	sep := "\n "
	if e.n > 0 {
		sep = ",\n "
	}
	e.n++
	_, err = fmt.Fprintf(e.W, "%s%s", sep, b)
	return err
}

func (e *JSONEmitter) End() error {
	_, err := io.WriteString(e.W, "\n]\n")
	return err
}

// MarkdownEmitter accumulates cells into a GitHub-flavoured markdown
// table rendered at End.
type MarkdownEmitter struct {
	W     io.Writer
	Title string

	table report.Table
}

func (e *MarkdownEmitter) Begin(int) error {
	e.table = report.Table{Title: e.Title, Columns: cellColumns}
	return nil
}

func (e *MarkdownEmitter) Cell(c CellResult) error {
	e.table.AddRow(cellValues(c)...)
	return nil
}

func (e *MarkdownEmitter) End() error { return e.table.Markdown(e.W) }

// ChartEmitter accumulates cells and renders an ASCII bar chart of one
// metric at End, in the style of the paper's normalised-runtime
// figures.
type ChartEmitter struct {
	W io.Writer
	// Metric selects the bar value: "runtime" (default) or
	// "bytes/miss".
	Metric string
	Title  string
	Width  int

	labels []string
	values []float64
}

func (e *ChartEmitter) Begin(cells int) error {
	e.labels = make([]string, 0, cells)
	e.values = make([]float64, 0, cells)
	return nil
}

func (e *ChartEmitter) Cell(c CellResult) error {
	v := c.Summary.Runtime.Mean
	if e.Metric == "bytes/miss" {
		v = c.Summary.BytesPerMiss.Mean
	}
	e.labels = append(e.labels, fmt.Sprintf("%s/%s", c.Config.Workload, c.Label))
	e.values = append(e.values, v)
	return nil
}

func (e *ChartEmitter) End() error {
	report.BarChart{Title: e.Title, Width: e.Width}.Render(e.W, e.labels, e.values)
	return nil
}
