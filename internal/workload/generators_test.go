package workload

import (
	"errors"
	"testing"

	"patch/internal/msg"
)

// TestGeneratorFreshBuildDeterminism: two fresh builds of every
// named generator must produce byte-identical streams — the
// property that makes a (workload, seed) pair a content-addressable
// simulation input.
func TestGeneratorFreshBuildDeterminism(t *testing.T) {
	const cores, ops = 16, 4000
	for _, name := range Names() {
		a, err := Named(name, cores, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Named(name, cores, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < ops; i++ {
			core := i % cores
			if x, y := a.Next(core), b.Next(core); x != y {
				t.Fatalf("%s: fresh builds diverged at op %d core %d: %+v vs %+v", name, i, core, x, y)
			}
		}
	}
}

// TestGeneratorCoreOrderIndependence: each core's stream must not
// depend on the order cores are driven in. The simulator interleaves
// cores by event time while RecordBinary captures core by core — if a
// generator's streams coupled across cores, a recorded trace would
// replay a different workload than the generator simulates.
func TestGeneratorCoreOrderIndependence(t *testing.T) {
	const cores, ops = 8, 500
	for _, name := range Names() {
		inter, err := Named(name, cores, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		major, err := Named(name, cores, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Drive one copy interleaved, the other core-major.
		got := make([][]Op, cores)
		for i := 0; i < cores*ops; i++ {
			c := i % cores
			got[c] = append(got[c], inter.Next(c))
		}
		for c := 0; c < cores; c++ {
			for i := 0; i < ops; i++ {
				if w := major.Next(c); w != got[c][i] {
					t.Fatalf("%s: core %d op %d differs by drive order: interleaved %+v, core-major %+v",
						name, c, i, got[c][i], w)
				}
			}
		}
	}
}

// TestScenarioRegionsDisjointAcrossDomains extends the paper-mix domain
// isolation property to the scenario family: cores in different
// consolidation domains must never touch the same shared block.
func TestScenarioRegionsDisjointAcrossDomains(t *testing.T) {
	const cores = 32 // two 16-core domains
	for _, name := range Scenarios() {
		g, err := Named(name, cores, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared := make([]map[msg.Addr]bool, 2)
		for d := range shared {
			shared[d] = map[msg.Addr]bool{}
		}
		for i := 0; i < cores*2000; i++ {
			core := i % cores
			op := g.Next(core)
			if uint64(op.Addr)>>36 == 0x1 {
				continue // private region, per-core by construction
			}
			shared[core/16][op.Addr] = true
		}
		for a := range shared[0] {
			if shared[1][a] {
				t.Fatalf("%s: block %#x shared across domains", name, uint64(a))
			}
		}
	}
}

// TestScenarioParamGuards: every scenario family must reject its
// degenerate parameterisations with a typed ErrBadParams construction
// error instead of panicking later in rand.Intn(0) or rand.NewZipf.
func TestScenarioParamGuards(t *testing.T) {
	cases := []struct {
		name  string
		build func() (Generator, error)
	}{
		{"pipeline stages", func() (Generator, error) {
			p := defaultPipeline()
			p.Stages = 1
			return newPipeline(p, 8, 1)
		}},
		{"pipeline buffers", func() (Generator, error) {
			p := defaultPipeline()
			p.Buffers = 0
			return newPipeline(p, 8, 1)
		}},
		{"pipeline work without private blocks", func() (Generator, error) {
			p := defaultPipeline()
			p.PrivateBlks = 0
			return newPipeline(p, 8, 1)
		}},
		{"migratory objects", func() (Generator, error) {
			p := defaultMigratory()
			p.Objects = 0
			return newMigratory(p, 8, 1)
		}},
		{"convoy locks", func() (Generator, error) {
			p := defaultConvoy()
			p.Locks = 0
			return newConvoy(p, 8, 1)
		}},
		{"convoy data blocks", func() (Generator, error) {
			p := defaultConvoy()
			p.DataBlocks = 0
			return newConvoy(p, 8, 1)
		}},
		{"falseshare hot blocks", func() (Generator, error) {
			p := defaultFalseSharing()
			p.HotBlocks = 0
			return newFalseSharing(p, 8, 1)
		}},
		{"falseshare write frac", func() (Generator, error) {
			p := defaultFalseSharing()
			p.WriteFrac = 1.5
			return newFalseSharing(p, 8, 1)
		}},
		{"zipf blocks", func() (Generator, error) {
			p := defaultZipf()
			p.Blocks = 1
			return newZipf(p, 8, 1)
		}},
		{"zipf skew", func() (Generator, error) {
			p := defaultZipf()
			p.Skew = 1.0 // rand.NewZipf requires s > 1
			return newZipf(p, 8, 1)
		}},
		{"phased phase ops", func() (Generator, error) {
			p := defaultPhased()
			p.PhaseOps = 0
			return newPhased(p, 8, 1)
		}},
		{"mix frac without blocks", func() (Generator, error) {
			return newMix(mix{MigratoryFrac: 0.3, PrivateBlocks: 8}, 8, 1)
		}},
		{"mix frac above one", func() (Generator, error) {
			return newMix(mix{SharedReadFrac: 1.5, SharedBlocks: 8, PrivateBlocks: 8}, 8, 1)
		}},
		{"mix no regions", func() (Generator, error) {
			return newMix(mix{}, 8, 1)
		}},
		{"zero cores", func() (Generator, error) {
			return newMicro(0, 1)
		}},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err == nil {
			t.Errorf("%s: invalid parameters accepted (generator %T)", tc.name, g)
			continue
		}
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: error %v does not wrap ErrBadParams", tc.name, err)
		}
	}
}

// TestScenarioTraceRoundTrip: a scenario generator recorded to a trace
// and streamed back must be op-for-op identical to a fresh build —
// trace recording accepts any named generator, including the
// stateful ones (pipeline's toggle, convoy's lock-phase machine,
// phased's rotation counter).
func TestScenarioTraceRoundTrip(t *testing.T) {
	const cores, ops = 8, 300
	for _, name := range []string{"pipeline", "convoy", "phased"} {
		g, err := Named(name, cores, 77)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := OpenTrace(writeTempBinary(t, g, cores, ops), cores)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		fresh, err := Named(name, cores, 77)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ops; i++ {
			for c := 0; c < cores; c++ {
				want := fresh.Next(c)
				if got := stream.Next(c); got != want {
					t.Fatalf("%s: replay op %d core %d: got %+v want %+v", name, i, c, got, want)
				}
			}
		}
		stream.Close()
	}
}

// TestRegistryShape pins the workload table's enumeration contract: paper
// workloads first in figure order, micro, then the scenario family;
// Known/Describe agree with Names; Scenarios and PaperWorkloads
// partition the non-micro names.
func TestRegistryShape(t *testing.T) {
	names := Names()
	wantPrefix := append(PaperWorkloads(), "micro")
	if len(names) < len(wantPrefix)+1 {
		t.Fatalf("table too small: %v", names)
	}
	for i, w := range wantPrefix {
		if names[i] != w {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, names[i], w, names)
		}
	}
	scen := Scenarios()
	if len(scen) != len(names)-len(wantPrefix) {
		t.Fatalf("Scenarios() = %v does not cover the tail of Names() = %v", scen, names)
	}
	for i, s := range scen {
		if names[len(wantPrefix)+i] != s {
			t.Fatalf("Scenarios()[%d] = %q out of table order", i, s)
		}
	}
	for _, n := range names {
		if !Known(n) {
			t.Errorf("Known(%q) = false for a name in the table", n)
		}
		desc, ok := Describe(n)
		if !ok || desc == "" {
			t.Errorf("Describe(%q) = %q, %v — every entry needs a parameter summary", n, desc, ok)
		}
	}
	if Known("nope") {
		t.Error("Known accepted a name not in the table")
	}
}

// FuzzMixParams fuzzes the mix parameter surface: construction must
// either reject the parameters with ErrBadParams or yield a generator
// that survives thousands of operations without panicking — the pre-fix
// code panicked in rand.Intn(0) on the first reference to a region with
// a nonzero fraction and zero blocks.
func FuzzMixParams(f *testing.F) {
	f.Add(0.2, 0.1, 0.05, 0.1, 0, 0, 0, 0, 5)
	f.Add(0.5, 0.0, 0.0, 0.0, 0, 16, 0, 0, 0)   // nonzero frac, zero blocks
	f.Add(0.0, 0.3, 0.0, 0.0, 0, 0, 0, 1024, 3) // migratory without blocks
	f.Add(1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1, 1)    // fracs sum past 1
	f.Add(-0.1, 0.0, 0.0, 0.0, 8, 8, 8, 8, -2)  // negative inputs
	f.Fuzz(func(t *testing.T, srf, mf, pcf, sf float64, sb, mb, pb, priv, think int) {
		m := mix{
			SharedReadFrac: srf, MigratoryFrac: mf, ProdConsFrac: pcf, StreamFrac: sf,
			SharedBlocks: sb, MigratoryBlocks: mb, ProdConsBlocks: pb,
			PrivateBlocks: priv, PrivateWriteFrac: 0.3, SharedWriteFrac: 0.05,
			ThinkMean: think, DomainCores: 4,
		}
		g, err := newMix(m, 8, 1)
		if err != nil {
			if !errors.Is(err, ErrBadParams) {
				t.Fatalf("construction error %v does not wrap ErrBadParams", err)
			}
			return
		}
		for i := 0; i < 4096; i++ {
			op := g.Next(i % 8)
			if uint64(op.Addr)%BlockSize != 0 {
				t.Fatalf("unaligned address %#x from %+v", uint64(op.Addr), m)
			}
			if op.Think < 0 {
				t.Fatalf("negative think time from %+v", m)
			}
		}
	})
}

// FuzzScenarioParams fuzzes the scenario-family parameter surface the
// same way, steering one integer seed through each family's knobs.
func FuzzScenarioParams(f *testing.F) {
	f.Add(0, 4, 16, 0.5, 1024, 5)
	f.Add(1, 0, 0, -1.0, 0, -1)
	f.Add(2, 1, 1, 2.0, 1, 0)
	f.Add(3, 64, 8, 0.7, 4096, 3)
	f.Add(4, 4096, 0, 1.2, 0, 100)
	f.Add(5, 200, 0, 0.0, 0, 0)
	f.Fuzz(func(t *testing.T, family, a, b int, frac float64, c, think int) {
		var g Generator
		var err error
		switch ((family % 6) + 6) % 6 {
		case 0:
			g, err = newPipeline(pipelineParams{Stages: a, Buffers: b, WorkFrac: frac, PrivateBlks: c, ThinkMean: think, DomainCores: 4}, 8, 1)
		case 1:
			g, err = newMigratory(migratoryParams{Objects: a, WorkFrac: frac, PrivateBlks: c, ThinkMean: think, DomainCores: 4}, 8, 1)
		case 2:
			g, err = newConvoy(convoyParams{Locks: a, DataBlocks: b, HoldOps: c, ThinkMean: think, DomainCores: 4}, 8, 1)
		case 3:
			g, err = newFalseSharing(falseSharingParams{HotBlocks: a, WriteFrac: frac, HotFrac: 0.5, PrivateBlks: c, ThinkMean: think, DomainCores: 4}, 8, 1)
		case 4:
			g, err = newZipf(zipfParams{Blocks: a, Skew: frac, WriteFrac: 0.2, ThinkMean: think, DomainCores: 4}, 8, 1)
		case 5:
			g, err = newPhased(phasedParams{PhaseOps: a, DomainCores: 4}, 8, 1)
		}
		if err != nil {
			if !errors.Is(err, ErrBadParams) {
				t.Fatalf("construction error %v does not wrap ErrBadParams", err)
			}
			return
		}
		for i := 0; i < 4096; i++ {
			op := g.Next(i % 8)
			if uint64(op.Addr)%BlockSize != 0 {
				t.Fatalf("unaligned address %#x", uint64(op.Addr))
			}
			if op.Think < 0 {
				t.Fatal("negative think time")
			}
		}
	})
}
