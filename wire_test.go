package patch

import (
	"encoding/json"
	"reflect"
	"testing"

	"patch/internal/stats"
)

// TestConfigJSONGolden pins the HTTP API's Config encoding: explicit
// snake_case field names, protocols and variants by paper name. A
// renamed Go identifier must not silently rename a wire field — this
// golden fails instead.
func TestConfigJSONGolden(t *testing.T) {
	cfg := Config{
		Protocol: PATCH, Variant: VariantAll,
		Cores: 64, Workload: "oltp", OpsPerCore: 600, WarmupOps: 1500,
		Seed: 7, BandwidthBytesPerKiloCycle: 2000, DirectoryCoarseness: 4,
		TenureTimeoutFactor: 2,
	}
	const want = `{"protocol":"PATCH","variant":"PATCH-All","cores":64,"workload":"oltp","ops_per_core":600,"warmup_ops":1500,"seed":7,"bandwidth_bytes_per_kilocycle":2000,"directory_coarseness":4,"tenure_timeout_factor":2}`
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("Config JSON drifted:\n got %s\nwant %s", b, want)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestMatrixJSONGolden pins the serialized Matrix — the POST /jobs
// request body. Adjust and Filter are functions and never cross the
// wire.
func TestMatrixJSONGolden(t *testing.T) {
	m := Matrix{
		Base:      Config{Cores: 16, OpsPerCore: 100, Seed: 1, SkipChecks: true},
		Workloads: []string{"micro", "oltp"},
		Protocols: []ProtoVariant{{Protocol: Directory}, {Protocol: PATCH, Variant: VariantAll}},
		Seeds:     2,
	}
	const want = `{"base":{"protocol":"Directory","cores":16,"ops_per_core":100,"seed":1,"skip_checks":true},"protocols":[{"protocol":"Directory"},{"protocol":"PATCH","variant":"PATCH-All"}],"workloads":["micro","oltp"],"seeds":2}`
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("Matrix JSON drifted:\n got %s\nwant %s", b, want)
	}
	var back Matrix
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != 4 || got.NumReplicas() != 8 {
		t.Errorf("deserialized matrix expands to %d cells/%d replicas, want 4/8",
			got.NumCells(), got.NumReplicas())
	}
}

// TestProgressAndCellResultJSONGolden pins the streaming-progress and
// result-download record shapes.
func TestProgressAndCellResultJSONGolden(t *testing.T) {
	p := Progress{Done: 3, Total: 8, Cell: 1, Cells: 2, CellDone: 1, CellTotal: 4, Label: "PATCH-All", Seed: 12}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const wantP = `{"done":3,"total":8,"cell":1,"cells":2,"cell_done":1,"cell_total":4,"label":"PATCH-All","seed":12}`
	if string(b) != wantP {
		t.Errorf("Progress JSON drifted:\n got %s\nwant %s", b, wantP)
	}

	cr := CellResult{
		Index:  2,
		Label:  "TokenB",
		Config: Config{Protocol: TokenB, Cores: 8, Workload: "micro"},
		Summary: &Summary{
			Runtime:      stats.Summary{N: 2, Mean: 100, StdDev: 1, CI95: 9},
			BytesPerMiss: stats.Summary{N: 2, Mean: 50},
			Results: []*Result{
				{Cycles: 99, Misses: 10, BytesPerMiss: 49, AvgMissLatency: 12.5},
				{Cycles: 101, Misses: 11, BytesPerMiss: 51, AvgMissLatency: 13.5},
			},
		},
	}
	b, err = json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	const wantC = `{"index":2,"label":"TokenB","config":{"protocol":"TokenB","cores":8,"workload":"micro"},"summary":{"runtime":{"n":2,"mean":100,"stddev":1,"ci95":9},"bytes_per_miss":{"n":2,"mean":50},"results":[{"cycles":99,"misses":10,"bytes_per_miss":49,"avg_miss_latency":12.5},{"cycles":101,"misses":11,"bytes_per_miss":51,"avg_miss_latency":13.5}]}}`
	if string(b) != wantC {
		t.Errorf("CellResult JSON drifted:\n got %s\nwant %s", b, wantC)
	}
	var back CellResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cr) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, cr)
	}
}

// TestProtocolVariantJSONForms covers the tolerant decode side:
// case-insensitive names and legacy integers both parse; junk errors.
func TestProtocolVariantJSONForms(t *testing.T) {
	var c Config
	for _, src := range []string{
		`{"protocol":"tokenb"}`,
		`{"protocol":2}`,
	} {
		if err := json.Unmarshal([]byte(src), &c); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if c.Protocol != TokenB {
			t.Errorf("%s decoded to %v, want TokenB", src, c.Protocol)
		}
	}
	for _, src := range []string{
		`{"protocol":"mesi"}`,
		`{"protocol":9}`,
		`{"protocol":"patch","variant":"PATCH-Everything"}`,
		`{"protocol":"patch","variant":99}`,
	} {
		if err := json.Unmarshal([]byte(src), &c); err == nil {
			t.Errorf("%s decoded without error", src)
		}
	}
	var v Variant
	if err := json.Unmarshal([]byte(`"patch-owner"`), &v); err != nil || v != VariantOwner {
		t.Errorf("case-insensitive variant decode: %v, %v", v, err)
	}
}
