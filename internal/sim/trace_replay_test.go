package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"patch/internal/predictor"
	"patch/internal/workload"
)

// recordTrace records ops operations per core of a named workload to a
// binary trace file and returns its path.
func recordTrace(t *testing.T, wl string, cores, ops int, seed int64) string {
	t.Helper()
	gen, err := workload.Named(wl, cores, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), wl+".bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.RecordBinary(f, gen, cores, ops); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceReplayMatchesGenerator records a workload to a trace file and
// verifies that replaying it produces the identical simulation result:
// cycles, misses, and the full traffic breakdown.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	const cores, ops, warm = 8, 150, 150
	base := Config{
		Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: cores, OpsPerCore: ops, WarmupOps: warm, Seed: 5,
		Workload: "oltp",
	}
	run := func(traceFile string) *Result {
		cfg := base
		cfg.TraceFile = traceFile
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", traceFile, err)
		}
		r.Config = Config{} // only the outputs must match
		return r
	}
	direct := run("")
	replayed := run(recordTrace(t, "oltp", cores, ops+warm, 5))
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("replay diverged from direct run:\n direct: %+v\n replay: %+v", direct, replayed)
	}
}

// TestBinaryReplayMatchesTextGolden holds a trace replay to the same
// gate as a generator run: every golden configuration, fed from its
// recorded binary trace, must reproduce the pinned record in
// testdata/golden.json bit for bit, on each protocol.
func TestBinaryReplayMatchesTextGolden(t *testing.T) {
	want := loadGolden(t)
	configs := goldenConfigs()
	if len(want) != len(configs) {
		t.Fatalf("golden has %d records, goldenConfigs has %d", len(want), len(configs))
	}
	for i, gc := range configs {
		cfg := gc.cfg
		cfg.TraceFile = recordTrace(t, cfg.Workload, cfg.Cores, cfg.OpsPerCore+cfg.WarmupOps, cfg.Seed)
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if got := goldenOf(gc.name, r); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: replay diverged from golden\n got: %+v\nwant: %+v", gc.name, got, want[i])
		}
	}
}

// TestTraceOverdriveSurfaced drives a replay past its recorded streams
// behind the simulator's back and checks Run refuses the result instead
// of silently repeating operations.
func TestTraceOverdriveSurfaced(t *testing.T) {
	const cores, ops = 4, 20
	path := recordTrace(t, "micro", cores, 2*ops, 2)
	s, err := NewSystem(Config{Protocol: Directory, Cores: cores, OpsPerCore: ops, WarmupOps: ops, TraceFile: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Gen.Next(0) // a buggy caller bypassing the Len guard
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "over-driven") {
		t.Fatalf("over-driven replay not surfaced: %v", err)
	}
}

func TestTraceReplayTooShortRejected(t *testing.T) {
	path := recordTrace(t, "micro", 4, 10, 1)
	_, err := Run(Config{
		Protocol: Directory, Cores: 4, OpsPerCore: 100, WarmupOps: 100, TraceFile: path,
	})
	if err == nil {
		t.Fatal("under-length trace accepted")
	}
}

func TestTraceFileMissing(t *testing.T) {
	_, err := Run(Config{Protocol: Directory, Cores: 4, OpsPerCore: 10, TraceFile: "/nonexistent/file.trace"})
	if err == nil {
		t.Fatal("missing trace file accepted")
	}
}
