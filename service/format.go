package service

import (
	"fmt"
	"io"
	"strings"

	"patch"
)

// Format is one output format of GET /jobs/{id}/result?format=<name>
// and of sweepd -local: an emitter constructor and the Content-Type
// its bytes are served under. The server replays a finished job's
// cells through a fresh emitter per download, so the bytes served are
// exactly what a local Sweep with that emitter produces.
type Format struct {
	name        string
	ContentType string
	New         func(io.Writer) patch.Emitter
}

// formats is the fixed format table, sorted by name.
var formats = []Format{
	{"chart", "text/plain; charset=utf-8", func(w io.Writer) patch.Emitter { return &patch.ChartEmitter{W: w} }},
	{"csv", "text/csv; charset=utf-8", func(w io.Writer) patch.Emitter { return &patch.CSVEmitter{W: w} }},
	{"json", "application/json", func(w io.Writer) patch.Emitter { return &patch.JSONEmitter{W: w} }},
	{"markdown", "text/markdown; charset=utf-8", func(w io.Writer) patch.Emitter { return &patch.MarkdownEmitter{W: w} }},
}

// LookupFormat returns the output format called name. The error for an
// unknown name lists the known ones.
func LookupFormat(name string) (Format, error) {
	for _, f := range formats {
		if f.name == name {
			return f, nil
		}
	}
	names := make([]string, len(formats))
	for i, f := range formats {
		names[i] = f.name
	}
	return Format{}, fmt.Errorf("unknown format %q (have: %s)", name, strings.Join(names, ", "))
}
