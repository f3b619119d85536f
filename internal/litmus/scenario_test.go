package litmus

import (
	"testing"

	"patch/internal/msg"
	"patch/internal/workload"
)

// scriptFromGenerator converts a named workload generator's op
// stream into a litmus Script: addresses are densely remapped into the
// harness's block set (coherence behaviour depends on block identity,
// not absolute addresses), think times become per-core delays, and the
// generator is driven round-robin so the script preserves each core's
// program order — the only order litmus guarantees.
func scriptFromGenerator(t *testing.T, name string, cores, ops, maxBlocks int) Script {
	t.Helper()
	g, err := workload.Named(name, cores, 31)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	blockOf := make(map[msg.Addr]int)
	script := make(Script, 0, cores*ops)
	for i := 0; i < cores*ops; i++ {
		core := i % cores
		op := g.Next(core)
		b, ok := blockOf[op.Addr]
		if !ok {
			b = len(blockOf) % maxBlocks
			blockOf[op.Addr] = b
		}
		delay := op.Think
		if delay > 20 {
			delay = 20
		}
		script = append(script, Op{Core: core, Block: b, Write: op.Write, Delay: delay})
	}
	return script
}

// TestScenarioConformanceMatrix is the table-wide conformance gate:
// a script derived from every named workload generator — paper
// mixes, micro, and the whole scenario family — must run under all five
// protocol variants (Directory, PATCH-None, PATCH-All, PATCH-All-NA,
// TokenB) on one reused Suite, pass the timing-independent axioms, and
// agree on final versions across protocols. Reuse matters: each
// generator's script runs on Reset systems still warm from the previous
// generator, the sweep arena's exact usage pattern.
func TestScenarioConformanceMatrix(t *testing.T) {
	const cores = 4
	suite, err := NewSuite(cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		script := scriptFromGenerator(t, name, cores, 40, 6)
		if err := suite.Compare(script); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScenarioConformanceFreshSystems re-runs a subset on fresh systems
// (a new Suite per scenario), pinning that reuse above isn't masking a
// construction-order dependence.
func TestScenarioConformanceFreshSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-system rebuild per scenario")
	}
	for _, name := range workload.Scenarios() {
		script := scriptFromGenerator(t, name, 4, 25, 4)
		suite, err := NewSuite(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := suite.Compare(script); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
