package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patch/internal/fault"
	"patch/internal/msg"
)

// workCount pins a run's exact work: the events the engine fired
// (warmup included) and the messages the network carried and delivered
// in the measured phase. The goldens pin what a run reports; these pin
// how much the simulator did to get there, so an engine change that
// fires one more event or sends one more message fails here even when
// every reported output still matches.
type workCount struct {
	Name        string
	Fired       uint64
	Delivered   uint64
	MsgsByClass [msg.NumClasses]uint64
}

// workCountConfigs is every golden configuration, one short 64-core
// oltp run per backend (the paper-grid shape: 63-way multicasts and
// deep event queues), and one checked, fault-injected convoy run with a
// dense mid-run audit. The audit reschedules itself only while the
// engine's queue is non-empty, so that run's Fired also pins what Len
// reports.
func workCountConfigs() []struct {
	name string
	cfg  Config
} {
	configs := goldenConfigs()
	oltp64 := func(c Config) Config {
		c.Cores, c.OpsPerCore, c.WarmupOps, c.Workload, c.Seed = 64, 30, 60, "oltp", 1
		return c
	}
	convoy := Config{
		Protocol: PATCH, Variant: VariantAll,
		Cores: 16, OpsPerCore: 100, WarmupOps: 200, Seed: 1, Workload: "convoy",
		auditEvery: 97,
	}
	convoy.FaultPlan = &fault.Plan{
		Seed: 1, HopJitter: 4,
		Degrade: []fault.Window{{FromCycle: 2000, ToCycle: 6000, Multiplier: 3, LinkFraction: 0.5}},
		Burst:   &fault.Burst{Period: 1000, Duration: 100, ExtraCycles: 2},
	}
	return append(configs, []struct {
		name string
		cfg  Config
	}{
		{"directory-oltp64", oltp64(Config{Protocol: Directory})},
		{"patch-all-oltp64", oltp64(Config{Protocol: PATCH, Variant: VariantAll})},
		{"tokenb-oltp64", oltp64(Config{Protocol: TokenB})},
		{"patch-all-convoy-faults-audit", convoy},
	}...)
}

// TestWorkCounts compares every run's exact work with
// testdata/workcounts.json. A changed count is a changed simulator, not
// noise: regenerate the file only alongside an explained behaviour
// change, with
//
//	go test ./internal/sim -run 'TestGoldenOutputs|TestWorkCounts' -update
func TestWorkCounts(t *testing.T) {
	path := filepath.Join("testdata", "workcounts.json")
	var got []workCount
	for _, wc := range workCountConfigs() {
		s, err := NewSystem(wc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", wc.name, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", wc.name, err)
		}
		got = append(got, workCount{
			Name:        wc.name,
			Fired:       s.Eng.Fired(),
			Delivered:   s.Net.Stats.Delivered,
			MsgsByClass: s.Net.Stats.MsgsByClass,
		})
	}
	if *updateGolden {
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing work-count file (run with -update to create): %v", err)
	}
	var want []workCount
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d records, the simulator produced %d", path, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: work diverged\n got: %+v\nwant: %+v", want[i].Name, got[i], want[i])
		}
	}
}
