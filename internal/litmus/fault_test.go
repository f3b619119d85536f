package litmus

import (
	"testing"

	"patch/internal/fault"
)

// faultPlans is the fault-conformance axis: each plan stresses one
// injection mechanism plus one combining all of them. Final-version
// agreement is timing-independent (the final version is the store
// count), so cross-protocol comparison stays valid under any delay
// schedule.
func faultPlans() map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"jitter": {Seed: 1, HopJitter: 7},
		"degrade": {Seed: 2, Degrade: []fault.Window{
			{FromCycle: 0, ToCycle: 1 << 40, Multiplier: 5, LinkFraction: 0.5},
		}},
		"burst": {Seed: 3, Burst: &fault.Burst{Period: 50, Duration: 20, ExtraCycles: 9}},
		"hostile": {Seed: 4, HopJitter: 5,
			Degrade: []fault.Window{{FromCycle: 100, ToCycle: 5_000, Multiplier: 3, LinkFraction: 0.3}},
			Burst:   &fault.Burst{Period: 200, Duration: 60, ExtraCycles: 6}},
	}
}

// TestFaultConformanceMatrix is the fault-injection arm of the
// conformance battery: seeded randomized scripts under every protocol
// variant with every fault plan, on reused (Reset) systems — the same
// pooled-arena discipline the sweep farm relies on, now with the
// interconnect actively reordering and stalling messages.
func TestFaultConformanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, plan := range faultPlans() {
		name, plan := name, plan
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			suite, err := NewSuite(8, plan)
			if err != nil {
				t.Fatal(err)
			}
			profiles := []GenConfig{
				{Cores: 8, Blocks: 1, Ops: 24},
				{Cores: 8, Blocks: 3, Ops: 30},
				{Cores: 8, Blocks: 2, Ops: 24, WriteFrac: 0.7, MaxDelay: 8},
			}
			for pi, gc := range profiles {
				seed := int64(9000 + pi)
				if err := suite.Compare(Generate(seed, gc)); err != nil {
					t.Errorf("profile %d (seed %d): %v", pi, seed, err)
				}
			}
		})
	}
}

// TestFaultConformanceFreshSystems covers the fresh-construction path
// of the same matrix: every protocol runs each faulted script on a
// newly built harness, so a Reset-only bug cannot hide the fresh one
// and vice versa.
func TestFaultConformanceFreshSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plan := faultPlans()["hostile"]
	script := Generate(77, GenConfig{Cores: 4, Blocks: 2, Ops: 24})
	for p := Protocol(0); p < NumProtocols; p++ {
		h, err := NewHarness(p, 4, plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(script); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// TestFaultedHarnessDeterministic pins that a faulted harness is still
// a pure function of its inputs: the same script on the same plan
// yields identical observations and cycle counts, fresh or reused.
func TestFaultedHarnessDeterministic(t *testing.T) {
	plan := faultPlans()["hostile"]
	script := Generate(5, GenConfig{Cores: 4, Blocks: 2, Ops: 20})
	run := func() *Outcome {
		h, err := NewHarness(PATCHAll, 4, plan)
		if err != nil {
			t.Fatal(err)
		}
		o, err := h.Run(script)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("faulted runs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	for i := range a.Observations {
		if a.Observations[i] != b.Observations[i] {
			t.Fatalf("observation %d diverged: %+v vs %+v",
				i, a.Observations[i], b.Observations[i])
		}
	}

	// Reused path: run a different script first, then the pinned one —
	// the injector must rewind on reset.
	h, err := NewHarness(PATCHAll, 4, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(Generate(6, GenConfig{Cores: 4, Blocks: 2, Ops: 20})); err != nil {
		t.Fatal(err)
	}
	c, err := h.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != a.Cycles {
		t.Fatalf("reused faulted run diverged: %d vs %d cycles", c.Cycles, a.Cycles)
	}
}
