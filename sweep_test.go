package patch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// testMatrix is a small but real Figure 4/5-shaped grid: two workloads
// x three protocol columns x two seeds.
func testMatrix() Matrix {
	return Matrix{
		Base:      Config{Cores: 8, OpsPerCore: 80, WarmupOps: 80, Seed: 1, SkipChecks: true},
		Workloads: []string{"jbb", "oltp"},
		Protocols: []ProtoVariant{
			{Protocol: Directory},
			{Protocol: PATCH, Variant: VariantAll},
			{Protocol: TokenB},
		},
		Seeds: 2,
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	res, err := Sweep(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 || res.Runs != 12 {
		t.Fatalf("%d cells, %d runs", len(res.Cells), res.Runs)
	}
	// The sequential reference path: plain Run per seed, in order.
	for _, c := range res.Cells {
		for s := 0; s < m.Seeds; s++ {
			cfg := c.Config
			cfg.Seed += int64(s)
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := c.Summary.Results[s]
			if got.Cycles != want.Cycles || got.BytesPerMiss != want.BytesPerMiss {
				t.Fatalf("%s seed %d: sweep (%d cyc, %.3f B/miss) != sequential (%d cyc, %.3f B/miss)",
					c.Label, cfg.Seed, got.Cycles, got.BytesPerMiss, want.Cycles, want.BytesPerMiss)
			}
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	one, err := Sweep(context.Background(), m, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Sweep(context.Background(), m, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatal("sweep results differ between 1 and 8 workers")
	}
}

func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := testMatrix()
	m.Seeds = 8 // enough runs that cancellation lands mid-sweep
	fired := 0
	res, err := Sweep(ctx, m, Workers(1), OnProgress(func(p Progress) {
		fired++
		if p.Done == 2 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a result")
	}
	if fired >= m.NumReplicas() {
		t.Fatalf("cancellation did not stop the sweep: %d runs completed", fired)
	}
}

func TestSweepProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	cellDone := make(map[int]int)
	results := make(map[int]*Result)
	res, err := Sweep(context.Background(), m, OnProgress(func(p Progress) {
		if p.Total != 12 {
			t.Errorf("Total = %d, want 12", p.Total)
		}
		if p.Cells != 6 || p.CellTotal != 2 {
			t.Errorf("Cells = %d, CellTotal = %d, want 6 and 2", p.Cells, p.CellTotal)
		}
		if p.Cell < 0 || p.Cell >= 6 || p.Label == "" {
			t.Errorf("bad cell coordinates: %+v", p)
		}
		cellDone[p.Cell]++
		if p.CellDone != cellDone[p.Cell] {
			t.Errorf("CellDone = %d, want %d for cell %d", p.CellDone, cellDone[p.Cell], p.Cell)
		}
		if p.Seed < 1 || p.Seed > 2 {
			t.Errorf("Seed = %d outside the cell's seed range [1, 2]", p.Seed)
		}
		if plan.ReplicaCell(p.Replica) != p.Cell || plan.ReplicaConfig(p.Replica).Seed != p.Seed || p.Result == nil {
			t.Errorf("replica %d does not name cell %d, seed %d and a result", p.Replica, p.Cell, p.Seed)
		}
		results[p.Replica] = p.Result
		calls = append(calls, p.Done)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 12 || calls[len(calls)-1] != 12 {
		t.Fatalf("progress calls = %v", calls)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
	for c, n := range cellDone {
		if n != 2 {
			t.Fatalf("cell %d completed %d replicas, want 2", c, n)
		}
	}
	if len(results) != 12 {
		t.Fatalf("progress named %d distinct replicas, want 12", len(results))
	}
	for i, r := range results {
		if r != res.Cells[plan.ReplicaCell(i)].Summary.Results[plan.ReplicaSeed(i)] {
			t.Errorf("replica %d: progress result is not the one the sweep reduced", i)
		}
	}
}

func TestSweepRunErrorPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	m.Base.MaxCycles = 1 // trips the liveness watchdog immediately
	_, err := Sweep(context.Background(), m)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want a watchdog failure", err)
	}
}

func TestSweepValidatesCells(t *testing.T) {
	m := testMatrix()
	m.Coarseness = []int{3} // does not divide 8 cores
	if _, err := Sweep(context.Background(), m); !errors.Is(err, ErrBadCoarseness) {
		t.Fatalf("err = %v, want ErrBadCoarseness", err)
	}
}

func TestSweepEmptyMatrix(t *testing.T) {
	m := testMatrix()
	m.Filter = func(Config) bool { return false }
	if _, err := Sweep(context.Background(), m); !errors.Is(err, ErrEmptyMatrix) {
		t.Fatalf("err = %v, want ErrEmptyMatrix", err)
	}
}

func TestMatrixExpansionOrderAndAxes(t *testing.T) {
	m := Matrix{
		Base:       Config{OpsPerCore: 10, SkipChecks: true},
		Workloads:  []string{"micro"},
		Cores:      []int{4, 8},
		Bandwidths: []int{2000, Unbounded},
		Coarseness: []int{1, 4},
		Protocols:  []ProtoVariant{{Protocol: Directory}, {Protocol: PATCH, Variant: VariantNone}},
		Filter:     func(c Config) bool { return c.DirectoryCoarseness <= c.Cores },
	}
	if n := m.NumCells(); n != 16 {
		t.Fatalf("NumCells = %d, want 16", n)
	}
	m.Seeds = 3
	if n := m.NumReplicas(); n != 48 {
		t.Fatalf("NumReplicas = %d, want 48", n)
	}
	p, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	cells := p.cells
	// The replica work-list flattens cells x seeds, each entry keyed
	// back to its cell with the seed offset applied on derivation.
	if len(p.replicas) != 48 || p.seeds != 3 {
		t.Fatalf("replicas = %d, seeds = %d, want 48 and 3", len(p.replicas), p.seeds)
	}
	for i, r := range p.replicas {
		if r.cell != i/3 || r.seed != i%3 {
			t.Fatalf("replica %d keyed (%d, %d), want (%d, %d)", i, r.cell, r.seed, i/3, i%3)
		}
		cfg := p.config(r)
		if want := cells[r.cell].cfg.Seed + int64(r.seed); cfg.Seed != want {
			t.Fatalf("replica %d seed %d, want %d", i, cfg.Seed, want)
		}
		cfg.Seed = cells[r.cell].cfg.Seed
		if cfg != cells[r.cell].cfg {
			t.Fatalf("replica %d config diverges from its cell beyond the seed", i)
		}
	}
	// Innermost axis varies fastest.
	if cells[0].label != "Directory" || cells[1].label != "PATCH-None" {
		t.Fatalf("protocol not innermost: %q, %q", cells[0].label, cells[1].label)
	}
	if cells[0].cfg.Cores != 4 || cells[len(cells)-1].cfg.Cores != 8 {
		t.Fatal("cores not outer axis")
	}
	if !cells[0].cfg.UnboundedBandwidth && cells[0].cfg.BandwidthBytesPerKiloCycle != 2000 {
		t.Fatalf("bandwidth axis lost: %+v", cells[0].cfg)
	}
	for _, c := range cells {
		if c.cfg.UnboundedBandwidth && c.cfg.BandwidthBytesPerKiloCycle != 0 {
			t.Fatalf("unbounded cell kept a finite bandwidth: %+v", c.cfg)
		}
	}
}

func TestProtoVariantNames(t *testing.T) {
	cases := []struct {
		pv   ProtoVariant
		want string
	}{
		{ProtoVariant{Protocol: Directory}, "Directory"},
		{ProtoVariant{Protocol: TokenB}, "TokenB"},
		{ProtoVariant{Protocol: PATCH, Variant: VariantAll}, "PATCH-All"},
		{ProtoVariant{Protocol: PATCH, Variant: VariantAllNonAdaptive, Label: "PATCH-All-NA"}, "PATCH-All-NA"},
	}
	for _, tc := range cases {
		if got := tc.pv.Name(); got != tc.want {
			t.Fatalf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestEmitters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := Matrix{
		Base:      Config{Cores: 8, OpsPerCore: 60, WarmupOps: 60, Seed: 1, SkipChecks: true, Workload: "micro"},
		Protocols: []ProtoVariant{{Protocol: Directory}, {Protocol: PATCH, Variant: VariantAll}},
	}
	var csvBuf, jsonBuf, mdBuf, chartBuf bytes.Buffer
	_, err := Sweep(context.Background(), m,
		EmitTo(&CSVEmitter{W: &csvBuf}),
		EmitTo(&JSONEmitter{W: &jsonBuf}),
		EmitTo(MultiEmitter{
			&MarkdownEmitter{W: &mdBuf, Title: "test"},
			&ChartEmitter{W: &chartBuf, Metric: "runtime", Title: "runtime"},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "label,workload,cores") {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "PATCH-All,micro,8") {
		t.Fatalf("CSV row %q", lines[2])
	}

	var recs []map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &recs); err != nil {
		t.Fatalf("JSON invalid: %v\n%s", err, jsonBuf.String())
	}
	if len(recs) != 2 || recs[0]["label"] != "Directory" || recs[0]["runtime_mean"].(float64) <= 0 {
		t.Fatalf("JSON records: %v", recs)
	}

	md := mdBuf.String()
	if !strings.Contains(md, "### test") || !strings.Contains(md, "| PATCH-All |") {
		t.Fatalf("markdown output:\n%s", md)
	}
	chart := chartBuf.String()
	if !strings.Contains(chart, "#") || !strings.Contains(chart, "micro/Directory") {
		t.Fatalf("chart output:\n%s", chart)
	}
}

// failAfterEmitter errors on the nth Cell call (or at Begin) and
// records lifecycle events.
type failAfterEmitter struct {
	n         int
	failBegin bool
	cells     int
	ended     bool
	labels    []string
}

func (e *failAfterEmitter) Begin(int) error {
	if e.failBegin {
		return errors.New("begin exploded")
	}
	return nil
}
func (e *failAfterEmitter) Cell(c CellResult) error {
	e.cells++
	e.labels = append(e.labels, c.Label)
	if e.cells == e.n {
		return errors.New("emitter exploded")
	}
	return nil
}
func (e *failAfterEmitter) End() error {
	e.ended = true
	return nil
}

func TestSweepEmitterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	failing := &failAfterEmitter{n: 1}
	witness := &failAfterEmitter{n: -1} // never fails; registered first
	_, err := Sweep(context.Background(), m, Workers(4),
		EmitTo(witness), EmitTo(failing))
	if err == nil || !strings.Contains(err.Error(), "emitter exploded") {
		t.Fatalf("err = %v, want the emitter failure", err)
	}
	// The witness must not have seen any cell twice: after the failure
	// nothing further is emitted, even with workers still in flight.
	seen := map[string]int{}
	for _, l := range witness.labels {
		seen[l]++
		if seen[l] > 1 {
			t.Fatalf("cell %q emitted twice after failure: %v", l, witness.labels)
		}
	}
	if !witness.ended || !failing.ended {
		t.Fatal("End not called on the failure path")
	}
}

func TestSweepBeginFailureClosesEarlierEmitters(t *testing.T) {
	earlier := &failAfterEmitter{n: -1}
	_, err := Sweep(context.Background(), testMatrix(),
		EmitTo(earlier), EmitTo(&failAfterEmitter{failBegin: true}))
	if err == nil || !strings.Contains(err.Error(), "begin exploded") {
		t.Fatalf("err = %v, want the Begin failure", err)
	}
	if !earlier.ended {
		t.Fatal("already-begun emitter not finalised after a later Begin failure")
	}
}

func TestSweepValidationErrorNotDoubled(t *testing.T) {
	m := testMatrix()
	m.Coarseness = []int{3}
	_, err := Sweep(context.Background(), m)
	if err == nil || strings.Count(err.Error(), "patch:") != 1 {
		t.Fatalf("stuttered error prefix: %v", err)
	}
}

func TestSweepFailureStillTerminatesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := testMatrix()
	m.Base.MaxCycles = 1 // every run trips the watchdog
	var buf bytes.Buffer
	_, err := Sweep(context.Background(), m, EmitTo(&JSONEmitter{W: &buf}))
	if err == nil {
		t.Fatal("sweep unexpectedly succeeded")
	}
	var recs []map[string]any
	if uerr := json.Unmarshal(buf.Bytes(), &recs); uerr != nil {
		t.Fatalf("failed sweep left invalid JSON: %v\n%s", uerr, buf.String())
	}
}

func TestRunSeedsMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Protocol: Directory, Cores: 8, Workload: "micro", OpsPerCore: 80, Seed: 1, SkipChecks: true}
	s, err := RunSeeds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), Matrix{Base: cfg, Seeds: 3}, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, res.Cells[0].Summary) {
		t.Fatal("RunSeeds diverges from a one-cell sweep")
	}
}
