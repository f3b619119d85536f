package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans of
// one replica or job share ID; Parent indexes the enclosing span (-1 at
// the top).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out once, at the end
// of the run. Times are nanoseconds since the log's origin.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, id, parent int) int {
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: l.now()})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	l.spans[i].End = l.now()
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// add records a span timed elsewhere and returns its index.
func (l *spanLog) add(name string, id, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(l.origin))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: s, End: s + int64(d)})
	return len(l.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover. Children of one span do not overlap
// (the benchmark makes one call at a time), so their durations add.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns m's keys in order, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
