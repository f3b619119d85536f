package main

import (
	"fmt"
	"slices"
	"time"
)

// The host's speed drifts by tens of percent over minutes on a shared
// virtual machine, and the drift moves every timing of a run together.
// A reference loop, timed between the phases of a timed run and about
// once a second inside sweep passes, gauges it: each stretch of program
// time between two of the loop's runs is scaled by refNominal over the
// mean of their times. The loop runs none of the repository's code and
// allocates nothing, so no change to the program can move it, and it
// does what the simulator does most: priority-queue events, hashed
// lookups of block tags and dependent loads through tables a few MiB
// large, which the host's cache contention slows as it slows the
// simulator. README.md gives the measurements behind this.

// refNominal is about the reference loop's median time on the
// measuring host: scaled metrics read as what the run would have
// measured had the host run the loop in refNominal.
const refNominal = 45 * time.Millisecond

const (
	refSlots  = 1 << 18 // table slots: 2 MiB of tags, 1 MiB of links
	refBlocks = 1 << 17 // distinct block tags, so the table stays half full
	refEvents = 4096    // events pending at any time
	refSteps  = 300_000 // events per run
)

type refEvent struct {
	at   uint64
	node uint32
}

// refLoop is the reference loop's preallocated state.
type refLoop struct {
	heap  []refEvent // binary min-heap on at
	tags  []uint64   // open-addressed table of block tags, 0 when free
	links []uint32   // per slot, another slot loaded on every hit
	rng   uint64
	sink  uint64 // keeps the loop's result live
}

func newRefLoop() *refLoop {
	return &refLoop{
		heap:  make([]refEvent, 0, refEvents),
		tags:  make([]uint64, refSlots),
		links: make([]uint32, refSlots),
	}
}

// run runs the loop once from a fixed state.
func (l *refLoop) run() {
	clear(l.tags)
	clear(l.links)
	l.heap = l.heap[:0]
	l.rng = 0x9E3779B97F4A7C15
	for i := 0; i < refEvents; i++ {
		l.push(refEvent{at: l.rand() % 1024, node: uint32(i)})
	}
	var sum uint64
	for i := 0; i < refSteps; i++ {
		e := l.pop()
		tag := l.rand()%refBlocks + 1
		slot := (tag * 0x9E3779B97F4A7C15) >> (64 - 18)
		for l.tags[slot] != 0 && l.tags[slot] != tag {
			slot = (slot + 1) & (refSlots - 1)
		}
		if l.tags[slot] == 0 {
			l.tags[slot] = tag
			l.links[slot] = uint32(l.rand() % refSlots)
		} else {
			sum += l.tags[l.links[slot]]
		}
		l.push(refEvent{at: e.at + 1 + l.rand()%64, node: e.node})
	}
	l.sink += sum
}

func (l *refLoop) rand() uint64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return l.rng
}

func (l *refLoop) push(e refEvent) {
	h := append(l.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	l.heap = h
}

func (l *refLoop) pop() refEvent {
	h := l.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.heap = h
	return top
}

// A refSample is one timed run of the reference loop.
type refSample struct{ start, end time.Time }

func (r refSample) dur() time.Duration { return r.end.Sub(r.start) }

// hostGauge samples the reference loop during a timed run.
type hostGauge struct {
	loop    *refLoop
	samples []refSample
	// every is the least time between two samples inside a sweep pass.
	every time.Duration
}

// newHostGauge returns a gauge whose loop has run once, untimed, so its
// first sample does not pay for faulting in the loop's memory.
func newHostGauge(every time.Duration) *hostGauge {
	l := newRefLoop()
	l.run()
	return &hostGauge{loop: l, every: every}
}

// sample times one run of the reference loop.
func (g *hostGauge) sample() {
	start := time.Now()
	g.loop.run()
	g.samples = append(g.samples, refSample{start, time.Now()})
}

// sampleIfDue samples the loop if every has passed since the last
// sample.
func (g *hostGauge) sampleIfDue() {
	if time.Since(g.samples[len(g.samples)-1].end) >= g.every {
		g.sample()
	}
}

// programTime returns the time between from and to that lies outside
// the gauge's samples. With scaled, each stretch between two samples
// counts refNominal over the mean of their times for each unit it
// lasted: what the host would have taken at its usual speed. Time
// before the first sample or after the last does not count, so a run
// samples before and after everything it measures.
func (g *hostGauge) programTime(from, to time.Time, scaled bool) time.Duration {
	var sum float64
	for k := 1; k < len(g.samples); k++ {
		a, b := g.samples[k-1].end, g.samples[k].start
		if from.After(a) {
			a = from
		}
		if to.Before(b) {
			b = to
		}
		if !b.After(a) {
			continue
		}
		f := 1.0
		if scaled {
			f = float64(2*refNominal) / float64(g.samples[k-1].dur()+g.samples[k].dur())
		}
		sum += float64(b.Sub(a)) * f
	}
	return time.Duration(sum)
}

// summary describes the run's samples.
func (g *hostGauge) summary() string {
	ms := make([]float64, len(g.samples))
	for i, r := range g.samples {
		ms[i] = float64(r.dur()) / float64(time.Millisecond)
	}
	return fmt.Sprintf("%d samples, median %.2f ms, %.2f to %.2f ms (nominal %v)",
		len(ms), median(ms), slices.Min(ms), slices.Max(ms), refNominal)
}
