package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGateBaselinePinsGOMAXPROCS checks that a gated run measures at the
// baseline's GOMAXPROCS and refuses a baseline at the other scale.
func TestGateBaselinePinsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	data, err := json.Marshal(File{Date: "2026-01-01", GOMAXPROCS: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gateBaseline(path, false); err == nil {
		t.Fatal("a quick baseline gated a full run")
	}
	base, err := gateBaseline(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != base.GOMAXPROCS {
		t.Fatalf("gated run measures at GOMAXPROCS %d, baseline was recorded at %d", got, base.GOMAXPROCS)
	}
}
