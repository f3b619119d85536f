package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

// goldenRecord pins every externally observable output of one simulation:
// the runtime, the demand-miss profile, and the full traffic breakdown.
// The values in testdata/golden.json were captured from the engine before
// the hot-path allocation overhaul; the refactored engine must reproduce
// them bit for bit (same cycles, same traffic counters), proving the
// pooled-event/pooled-message/dense-index rewrite is a pure optimisation.
type goldenRecord struct {
	Name         string
	Cycles       uint64
	Ops          uint64
	Misses       uint64
	LinkBytes    uint64
	Dropped      uint64
	BytesByClass [msg.NumClasses]uint64
	Stats        protocol.Stats
}

func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	bw2000 := interconnect.DefaultConfig()
	bw2000.BytesPerKiloCycle = 2000
	return []struct {
		name string
		cfg  Config
	}{
		{"directory-micro", Config{
			Protocol: Directory, Cores: 16, OpsPerCore: 200, WarmupOps: 400,
			Workload: "micro", Seed: 7,
		}},
		{"directory-oltp-coarse4", Config{
			Protocol: Directory, Cores: 16, OpsPerCore: 200, WarmupOps: 400,
			Workload: "oltp", Seed: 7, Coarseness: 4,
		}},
		{"patch-all-oltp", Config{
			Protocol: PATCH, Policy: predictor.All, BestEffort: true,
			Cores: 16, OpsPerCore: 200, WarmupOps: 400, Workload: "oltp", Seed: 7,
		}},
		{"patch-none-micro-bw2000", Config{
			Protocol: PATCH, Policy: predictor.None, BestEffort: true,
			Cores: 16, OpsPerCore: 200, WarmupOps: 400, Workload: "micro", Seed: 7,
			Net: bw2000,
		}},
		{"patch-owner-barnes", Config{
			Protocol: PATCH, Policy: predictor.Owner, BestEffort: true,
			Cores: 16, OpsPerCore: 200, WarmupOps: 400, Workload: "barnes", Seed: 7,
		}},
		{"tokenb-micro", Config{
			Protocol: TokenB, Cores: 16, OpsPerCore: 200, WarmupOps: 400,
			Workload: "micro", Seed: 7,
		}},
		{"directory-ocean-unbounded", Config{
			Protocol: Directory, Cores: 16, OpsPerCore: 200, WarmupOps: 400,
			Workload: "ocean", Seed: 7,
			Net: interconnect.Config{Unbounded: true, HopLatency: 3, RouteOverhead: 3, DropAfter: 100},
		}},
	}
}

func runGolden(t *testing.T) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	for _, gc := range goldenConfigs() {
		r, err := Run(gc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		out = append(out, goldenOf(gc.name, r))
	}
	return out
}

func goldenOf(name string, r *Result) goldenRecord {
	return goldenRecord{
		Name:         name,
		Cycles:       r.Cycles,
		Ops:          r.Ops,
		Misses:       r.Misses,
		LinkBytes:    r.LinkBytes,
		Dropped:      r.Dropped,
		BytesByClass: r.BytesByClass,
		Stats:        r.Stats,
	}
}

// loadGolden reads the pinned records in testdata/golden.json.
func loadGolden(t *testing.T) []goldenRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenOutputs is the differential regression gate for engine
// refactors: cycle counts and traffic accounting must match the recorded
// pre-refactor outputs exactly. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := runGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want := loadGolden(t)
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, engine produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: output diverged from pre-refactor engine\n got: %+v\nwant: %+v", want[i].Name, got[i], want[i])
		}
	}
}
