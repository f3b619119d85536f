package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{Title: "Figure 4", Columns: []string{"config", "runtime", "traffic"}}
	t.AddRow("Directory", 1.0, 1.0)
	t.AddRow("PATCH-All", 0.862, 2.41)
	return t
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "config,runtime,traffic" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], "0.862") {
		t.Fatalf("row %q", lines[2])
	}
}

func TestMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### Figure 4", "| config | runtime | traffic |", "| --- | --- | --- |", "| PATCH-All | 0.862 | 2.410 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q in:\n%s", want, out)
		}
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	BarChart{Title: "runtime", Width: 10}.Render(&buf,
		[]string{"Dir", "PATCH"}, []float64{1.0, 0.5})
	out := buf.String()
	if !strings.Contains(out, "##########") {
		t.Fatalf("full bar missing:\n%s", out)
	}
	if !strings.Contains(out, "#####") || strings.Count(out, "\n") != 3 {
		t.Fatalf("half bar missing:\n%s", out)
	}
}

func TestBarChartZeroSafe(t *testing.T) {
	var buf bytes.Buffer
	BarChart{}.Render(&buf, []string{"a"}, []float64{0})
	if !strings.Contains(buf.String(), "0.000") {
		t.Fatal("zero value not rendered")
	}
}
