package patch

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"patch/internal/workload"
)

// TestSweepCSVByteIdentical is the end-to-end determinism regression
// gate for the engine's pooled hot path: one mid-size Figure-4-shaped
// cell grid must render byte-identical CSV output across repeated runs
// and across worker counts. Any nondeterminism introduced by slot or
// message recycling (or by parallel aggregation) shows up here as a
// byte diff.
func TestSweepCSVByteIdentical(t *testing.T) {
	m := Matrix{
		Base: Config{
			Cores: 16, OpsPerCore: 150, WarmupOps: 300,
			Workload: "oltp", Seed: 5, SkipChecks: true,
		},
		Protocols: FigureProtocols(),
		Seeds:     2,
	}
	run := func(workers int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := Sweep(context.Background(), m, Workers(workers), EmitTo(&CSVEmitter{W: &buf})); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	first := run(1)
	if len(first) == 0 {
		t.Fatal("empty CSV output")
	}
	if again := run(1); !bytes.Equal(first, again) {
		t.Errorf("repeat run diverged:\n--- first\n%s\n--- second\n%s", first, again)
	}
	if par := run(4); !bytes.Equal(first, par) {
		t.Errorf("workers=4 diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", first, par)
	}
}

// TestScenarioSweepCSVByteIdentical is the registry-wide determinism
// gate: every registered workload — the paper mixes, micro, and the
// whole sharing-pattern scenario family — must sweep to byte-identical
// CSV at worker counts 1 and 4. Workload names are Matrix axis values,
// so one sweep covers the entire registry; a generator whose per-core
// streams depend on drive order (or on shared mutable state) diverges
// here the moment replicas shard across workers.
func TestScenarioSweepCSVByteIdentical(t *testing.T) {
	m := Matrix{
		Base: Config{
			Cores: 8, OpsPerCore: 80, WarmupOps: 80,
			Seed: 11, SkipChecks: true,
		},
		Workloads: workload.Names(),
		Seeds:     2,
	}
	run := func(workers int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := Sweep(context.Background(), m, Workers(workers), EmitTo(&CSVEmitter{W: &buf})); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	first := run(1)
	if len(first) == 0 {
		t.Fatal("empty CSV output")
	}
	if par := run(4); !bytes.Equal(first, par) {
		t.Errorf("workers=4 diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", first, par)
	}
}

// TestReplicaShardingByteIdentical is the determinism gate for the
// replica-sharded scheduler, and doubles as its race stress under the
// CI -race job. The matrix is a single cell with Seeds=8, so every bit
// of parallelism comes from replica sharding — the case the cell-lockstep
// engine used to serialise — and all eight replicas funnel into one
// position-indexed reduce concurrently. CSV output must stay
// byte-identical across worker counts (1, 4, 8, GOMAXPROCS) and across
// repeated runs, regardless of replica completion order.
func TestReplicaShardingByteIdentical(t *testing.T) {
	m := Matrix{
		Base: Config{
			Cores: 8, OpsPerCore: 100, WarmupOps: 100,
			Workload: "oltp", Seed: 3, SkipChecks: true,
		},
		Seeds: 8,
	}
	p, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumReplicas(); n != 8 {
		t.Fatalf("NumReplicas = %d, want 8", n)
	}
	run := func(workers int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := Sweep(context.Background(), m, Workers(workers), EmitTo(&CSVEmitter{W: &buf})); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	ref := run(1)
	if len(ref) == 0 {
		t.Fatal("empty CSV output")
	}
	if again := run(1); !bytes.Equal(ref, again) {
		t.Errorf("repeat sequential run diverged:\n--- first\n%s\n--- second\n%s", ref, again)
	}
	for _, workers := range []int{4, 8, runtime.GOMAXPROCS(0)} {
		if out := run(workers); !bytes.Equal(ref, out) {
			t.Errorf("workers=%d diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", workers, ref, out)
		}
	}
}
