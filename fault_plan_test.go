package patch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"patch/internal/fault"
)

// enabledPlan is a plan exercising every fault axis at once.
func enabledPlan() *FaultPlan {
	return &FaultPlan{
		Seed:      9,
		HopJitter: 4,
		Degrade:   []FaultWindow{{FromCycle: 100, ToCycle: 5_000, Multiplier: 3, LinkFraction: 0.5}},
		Burst:     &CongestionBurst{Period: 500, Duration: 100, ExtraCycles: 6},
	}
}

// TestFaultPlanNoopKeepsFingerprint pins the golden-hash contract:
// every fault-free spelling of a configuration — no plan, zero plan,
// seed-only plan, dead windows, zero burst — must keep the exact
// fingerprint an unfaulted config had before fault injection existed.
func TestFaultPlanNoopKeepsFingerprint(t *testing.T) {
	base := fpBase().Fingerprint()
	noops := map[string]*FaultPlan{
		"zero":        {},
		"seed-only":   {Seed: 42},
		"dead-window": {Seed: 1, Degrade: []FaultWindow{{FromCycle: 10, ToCycle: 20, Multiplier: 1}}},
		"zero-burst":  {Seed: 1, Burst: &CongestionBurst{}},
	}
	for name, p := range noops {
		c := fpBase()
		c.FaultPlan = p
		if got := c.Fingerprint(); got != base {
			t.Errorf("%s plan split the cache: %s != %s", name, got, base)
		}
	}
	c := fpBase()
	c.FaultPlan = enabledPlan()
	if c.Fingerprint() == base {
		t.Error("enabled plan did not change the fingerprint")
	}
	// Distinct enabled plans split; equivalent link fractions (0 and 1
	// both mean all links) do not.
	d := fpBase()
	d.FaultPlan = enabledPlan()
	d.FaultPlan.Seed = 10
	if d.Fingerprint() == c.Fingerprint() {
		t.Error("plans differing by seed share a fingerprint")
	}
	all0 := fpBase()
	all0.FaultPlan = &FaultPlan{Degrade: []FaultWindow{{ToCycle: 100, Multiplier: 2, LinkFraction: 0}}}
	all1 := fpBase()
	all1.FaultPlan = &FaultPlan{Degrade: []FaultWindow{{ToCycle: 100, Multiplier: 2, LinkFraction: 1}}}
	if all0.Fingerprint() != all1.Fingerprint() {
		t.Error("link_fraction 0 and 1 (both: all links) split the cache")
	}
}

// TestFaultedFingerprintGolden pins the fingerprint of a faulted
// configuration whose plan mixes every spelling the canonical form
// rewrites: a dead window (dropped), a live window with link fraction
// 1 (written as 0), a live partial window, and a live burst.
func TestFaultedFingerprintGolden(t *testing.T) {
	c := fpBase()
	c.FaultPlan = &FaultPlan{
		Seed:      3,
		HopJitter: 2,
		Degrade: []FaultWindow{
			{FromCycle: 10, ToCycle: 20, Multiplier: 1},
			{FromCycle: 100, ToCycle: 900, Multiplier: 2, LinkFraction: 1},
			{FromCycle: 50, ToCycle: 40, Multiplier: 5},
			{FromCycle: 1_000, ToCycle: 4_000, Multiplier: 3, LinkFraction: 0.25},
		},
		Burst: &CongestionBurst{Period: 700, Duration: 70, ExtraCycles: 5},
	}
	const want = "580151674710796d7efc6694e8cad6cb64c7df137374c1aeb1ed2f38884e16c5"
	if got := c.Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %s, want %s", got, want)
	}
}

// TestFaultPlanValidation walks the rejection envelope.
func TestFaultPlanValidation(t *testing.T) {
	bad := map[string]*FaultPlan{
		"negative-jitter": {HopJitter: -1},
		"huge-jitter":     {HopJitter: fault.MaxDelay + 1},
		"multiplier-zero": {Degrade: []FaultWindow{{ToCycle: 10, Multiplier: 0}}},
		"inverted-window": {Degrade: []FaultWindow{{FromCycle: 10, ToCycle: 5, Multiplier: 2}}},
		"fraction-high":   {Degrade: []FaultWindow{{ToCycle: 10, Multiplier: 2, LinkFraction: 1.5}}},
		"fraction-neg":    {Degrade: []FaultWindow{{ToCycle: 10, Multiplier: 2, LinkFraction: -0.1}}},
		"window-bomb":     {Degrade: make([]FaultWindow, 65)},
		"burst-too-long":  {Burst: &CongestionBurst{Period: 10, Duration: 11}},
		"burst-negative":  {Burst: &CongestionBurst{Period: 10, Duration: 5, ExtraCycles: -1}},
	}
	for name, p := range bad {
		c := Config{FaultPlan: p}
		if err := c.Validate(); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("%s: Validate() = %v, want ErrBadFaultPlan", name, err)
		}
	}
	good := Config{FaultPlan: enabledPlan()}
	if err := good.Validate(); err != nil {
		t.Errorf("enabled plan rejected: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

// TestMatrixFaultsAxis pins the Faults axis position in the expansion
// order: between Coarseness and Protocols, so the fault column varies
// faster than coarseness and slower than protocol.
func TestMatrixFaultsAxis(t *testing.T) {
	m := Matrix{
		Base:      Config{Cores: 8, OpsPerCore: 40, Workload: "micro"},
		Faults:    []*FaultPlan{nil, enabledPlan()},
		Protocols: []ProtoVariant{{Protocol: Directory}, {Protocol: TokenB}},
	}
	p, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCells() != 4 {
		t.Fatalf("NumCells = %d, want 4", p.NumCells())
	}
	wantFault := []bool{false, false, true, true}
	wantProto := []Protocol{Directory, TokenB, Directory, TokenB}
	for i := 0; i < 4; i++ {
		cfg := p.CellConfig(i)
		if (cfg.FaultPlan != nil) != wantFault[i] || cfg.Protocol != wantProto[i] {
			t.Errorf("cell %d: fault=%v protocol=%v, want fault=%v protocol=%v",
				i, cfg.FaultPlan != nil, cfg.Protocol, wantFault[i], wantProto[i])
		}
	}
	// An absent axis inherits the base plan.
	m2 := Matrix{Base: Config{FaultPlan: enabledPlan()}}
	p2, err := m2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p2.CellConfig(0).FaultPlan == nil {
		t.Error("empty Faults axis dropped the base plan")
	}
}

// TestFaultedSweepCSVByteIdentical is the fault arm of the sweep
// determinism gate: a faulted matrix (fault-free and hostile columns,
// three protocols, two seeds) must render byte-identical CSV at worker
// counts 1 and 4 — per-link fault streams are independent of delivery
// order and of which arena runs which replica.
func TestFaultedSweepCSVByteIdentical(t *testing.T) {
	m := Matrix{
		Base: Config{
			Cores: 16, OpsPerCore: 120, WarmupOps: 120,
			Workload: "micro", Seed: 5,
		},
		Faults: []*FaultPlan{nil, enabledPlan()},
		Protocols: []ProtoVariant{
			{Protocol: Directory},
			{Protocol: PATCH, Variant: VariantAll},
			{Protocol: TokenB},
		},
		Seeds: 2,
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

// FuzzFaultPlan throws hostile wire JSON at the fault-plan surface the
// sweep service exposes: a config body with an attacker-chosen
// fault_plan must validate or be rejected — never panic, never produce
// an unstable fingerprint, and always survive a marshal round trip.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte(`{"protocol": "Directory", "fault_plan": {"seed": 1, "hop_jitter": 4}}`))
	f.Add([]byte(`{"fault_plan": {"degrade": [{"from_cycle": 0, "to_cycle": 100, "multiplier": 3, "link_fraction": 0.5}]}}`))
	f.Add([]byte(`{"fault_plan": {"burst": {"period": 100, "duration": 20, "extra_cycles": 5}}}`))
	f.Add([]byte(`{"fault_plan": {"hop_jitter": -4}}`))
	f.Add([]byte(`{"fault_plan": {"hop_jitter": 99999999999}}`))
	f.Add([]byte(`{"fault_plan": {"degrade": [{"from_cycle": 50, "to_cycle": 1, "multiplier": 2}]}}`))
	f.Add([]byte(`{"fault_plan": {"degrade": [{"to_cycle": 10, "multiplier": 0}]}}`))
	f.Add([]byte(`{"fault_plan": {"degrade": [{"to_cycle": 10, "multiplier": 2, "link_fraction": 2.5}]}}`))
	f.Add([]byte(`{"fault_plan": {"burst": {"period": 1, "duration": 99, "extra_cycles": -3}}}`))
	f.Add([]byte(`{"fault_plan": {"seed": -9223372036854775808}}`))
	f.Add([]byte(`{"fault_plan": {}}`))
	f.Add([]byte(`{"fault_plan": null}`))
	f.Add([]byte(`{"fault_plan": {"degrade": []}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		err := c.Validate()
		// Lowering and fingerprinting must be total and stable whether or
		// not the config validates (the service fingerprints after
		// validation, but neither may panic on any decodable input).
		_ = c.ToSim()
		if a, b := c.Fingerprint(), c.Fingerprint(); a != b || a == "" {
			t.Fatalf("unstable fingerprint %q / %q", a, b)
		}
		if err != nil {
			return
		}
		re, mErr := json.Marshal(c)
		if mErr != nil {
			t.Fatalf("re-marshal of valid config failed: %v", mErr)
		}
		var c2 Config
		if uErr := json.Unmarshal(re, &c2); uErr != nil {
			t.Fatalf("round trip failed: %v\n%s", uErr, re)
		}
		if c2.Fingerprint() != c.Fingerprint() {
			t.Fatalf("round trip changed fingerprint:\n%s", re)
		}
	})
}
