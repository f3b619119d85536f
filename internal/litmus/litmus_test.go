package litmus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestClassicLitmusShapes runs a few canonical hand-written scenarios.
func TestClassicLitmusShapes(t *testing.T) {
	cases := []struct {
		name   string
		script Script
	}{
		{"store-buffer-ish", Script{
			{Core: 0, Block: 0, Write: true}, {Core: 0, Block: 1, Write: false},
			{Core: 1, Block: 1, Write: true}, {Core: 1, Block: 0, Write: false},
		}},
		{"message-passing", Script{
			{Core: 0, Block: 0, Write: true}, {Core: 0, Block: 1, Write: true},
			{Core: 1, Block: 1, Write: false}, {Core: 1, Block: 0, Write: false},
		}},
		{"racing-writers", Script{
			{Core: 0, Block: 0, Write: true}, {Core: 1, Block: 0, Write: true},
			{Core: 2, Block: 0, Write: true}, {Core: 3, Block: 0, Write: true},
		}},
		{"read-own-write", Script{
			{Core: 0, Block: 0, Write: true}, {Core: 0, Block: 0, Write: false},
			{Core: 0, Block: 0, Write: true}, {Core: 0, Block: 0, Write: false},
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			suite, err := NewSuite(4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := suite.Compare(c.script); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceMatrix is the cross-protocol conformance battery: a
// table sweep of seeded randomized scripts over every protocol variant
// the harness covers (Directory, PATCH-None/All/All-NA, TokenB) at
// each system size 2, 4, 8, 16 — torus shapes 2x1 through 4x4 — and
// three contention profiles. Compare runs each script under all five
// variants, asserting the timing-independent axioms (per-core per-block
// version order, read-own-writes, version-within-store-count, token
// conservation, liveness) and, through sim's write-serialisation check,
// cross-protocol final-state agreement.
// Every entry is reproducible from its printed seed via Generate.
func TestConformanceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	shapes := []struct {
		cores int
		torus string
	}{
		{2, "2x1"}, {4, "2x2"}, {8, "4x2"}, {16, "4x4"},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.torus, func(t *testing.T) {
			profiles := []struct {
				name string
				gc   GenConfig
			}{
				{"one-block-race", GenConfig{Cores: sh.cores, Blocks: 1, Ops: 24}},
				{"mixed-contention", GenConfig{Cores: sh.cores, Blocks: 3, Ops: 30}},
				{"store-heavy", GenConfig{Cores: sh.cores, Blocks: 2, Ops: 24, WriteFrac: 0.7, MaxDelay: 8}},
			}
			// One Suite per shape: every profile after the first runs on
			// Reset systems, so the matrix pins the pooled/reused-System
			// paths (stale MSHRs, waiters, arena entries across resets),
			// not just the protocols.
			suite, err := NewSuite(sh.cores, nil)
			if err != nil {
				t.Fatal(err)
			}
			for pi, prof := range profiles {
				seed := int64(1000*sh.cores + pi)
				script := Generate(seed, prof.gc)
				if err := suite.Compare(script); err != nil {
					t.Errorf("%s (seed %d): %v", prof.name, seed, err)
				}
			}
		})
	}
}

// TestGenerateDeterministic pins the generator contract the matrix
// relies on: same seed and config, same script.
func TestGenerateDeterministic(t *testing.T) {
	gc := GenConfig{Cores: 4, Blocks: 2, Ops: 40, WriteFrac: 0.5}
	a, b := Generate(7, gc), Generate(7, gc)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := Generate(8, gc); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical scripts")
		}
	}
	writes := 0
	for _, op := range a {
		if op.Write {
			writes++
		}
	}
	if writes == 0 || writes == len(a) {
		t.Fatalf("WriteFrac 0.5 produced %d/%d stores", writes, len(a))
	}
}

func TestRandomScriptsAllProtocols(t *testing.T) {
	// One reused suite across all 15 scripts: each protocol's system is
	// Reset 14 times, soaking the reuse paths under random contention.
	suite, err := NewSuite(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		script := Generate(int64(i+1), GenConfig{Cores: 4, Blocks: 3, Ops: 24})
		if err := suite.Compare(script); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
	}
}

func TestHighContentionSingleBlock(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	script := make(Script, 40)
	for i := range script {
		script[i] = Op{Core: r.Intn(8), Block: 0, Write: r.Intn(2) == 0, Delay: r.Intn(5)}
	}
	suite, err := NewSuite(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Compare(script); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomLitmus is the protocol fuzzer: random scripts under
// random seeds must satisfy every coherence axiom on every protocol.
func TestPropertyRandomLitmus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		script := Generate(seed, GenConfig{Cores: 4, Blocks: 2, Ops: 30})
		suite, err := NewSuite(4, nil)
		return err == nil && suite.Compare(script) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeFields(t *testing.T) {
	script := Script{{Core: 0, Block: 0, Write: true}, {Core: 1, Block: 0, Write: false}}
	h, err := NewHarness(PATCHAll, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := h.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if o.Protocol != PATCHAll || o.Cycles == 0 || len(o.Observations) != 2 {
		t.Fatalf("outcome: %+v", o)
	}
	// The write produced version 1; the read (later in time or not) saw
	// version 0 or 1, never more.
	for _, ob := range o.Observations {
		if ob.Version > 1 {
			t.Fatalf("impossible version %d", ob.Version)
		}
	}
}

func TestProtocolStrings(t *testing.T) {
	for p := Protocol(0); p < NumProtocols; p++ {
		if p.String() == "Protocol(?)" {
			t.Fatalf("protocol %d unnamed", p)
		}
	}
}
