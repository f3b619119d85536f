package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/pprof"
	"time"

	"patch"
)

// simTotals accumulates, per backend, the simulated memory ops of the
// replicas run and the host time spent inside their RunReplica calls.
type simTotals struct {
	ops  map[string]float64
	secs map[string]float64
}

func newSimTotals() *simTotals {
	return &simTotals{ops: map[string]float64{}, secs: map[string]float64{}}
}

func (t *simTotals) add(o *simTotals) {
	for b, v := range o.ops {
		t.ops[b] += v
		t.secs[b] += o.secs[b]
	}
}

// runSecs is the host time inside RunReplica across all backends.
func (t *simTotals) runSecs() float64 {
	s := 0.0
	for _, v := range t.secs {
		s += v
	}
	return s
}

// simOps is a replica's simulated memory ops: every core runs its
// warmup and its measured ops.
func simOps(c patch.Config) float64 {
	sc := c.ToSim()
	warm := sc.WarmupOps
	switch {
	case warm == 0:
		warm = sc.OpsPerCore
	case warm < 0:
		warm = 0
	}
	return float64(sc.Cores * (warm + sc.OpsPerCore))
}

// A replicaRun is one replica a timedRunner executed.
type replicaRun struct {
	cfg   patch.Config
	res   *patch.Result
	start time.Time
	dur   time.Duration
}

// timedRunner wraps the local runner and times each RunReplica call.
// When labels is set it also tags the calling goroutine with the
// replica's backend, so a CPU profile can be split per backend. With a
// gauge it samples the reference loop between replicas when one is due.
type timedRunner struct {
	inner  patch.Runner
	totals *simTotals
	runs   *[]replicaRun
	labels bool
	gauge  *hostGauge
}

func (r *timedRunner) RunReplica(c patch.Config) (*patch.Result, error) {
	b := backendOf(c)
	if r.labels {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("backend", b)))
	}
	start := time.Now()
	res, err := r.inner.RunReplica(c)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	r.totals.ops[b] += simOps(c)
	r.totals.secs[b] += d.Seconds()
	if r.runs != nil {
		*r.runs = append(*r.runs, replicaRun{cfg: c, res: res, start: start, dur: d})
	}
	if r.gauge != nil {
		r.gauge.sampleIfDue()
	}
	return res, nil
}

func (r *timedRunner) Close() { r.inner.Close() }

// A pass is one timed patch.Sweep over a matrix on one worker.
type pass struct {
	start  time.Time
	wall   time.Duration
	digest string // sha256 of the CSV emitter's output
	csv    []byte
	totals *simTotals
	runs   []replicaRun // in work-list order
}

// sweepPass runs m once through patch.Sweep with one worker, timing
// every replica, and digests the CSV the sweep emits. A non-nil gauge
// samples the reference loop between replicas when one is due.
func sweepPass(ctx context.Context, m patch.Matrix, labels bool, g *hostGauge) (*pass, error) {
	p := &pass{totals: newSimTotals()}
	var csv bytes.Buffer
	factory := func() patch.Runner {
		return &timedRunner{inner: patch.NewRunner(), totals: p.totals, runs: &p.runs, labels: labels, gauge: g}
	}
	p.start = time.Now()
	_, err := patch.Sweep(ctx, m, patch.Workers(1), patch.WithRunnerFactory(factory),
		patch.EmitTo(&patch.CSVEmitter{W: &csv}))
	p.wall = time.Since(p.start)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	p.csv = csv.Bytes()
	sum := sha256.Sum256(p.csv)
	p.digest = hex.EncodeToString(sum[:])
	return p, nil
}
