// The workload table: every named workload — the paper's five
// application mixes, the §8.1 microbenchmark, and the synthetic
// sharing-pattern scenario family — is one row here. patch.Config
// validation, Matrix Workloads axes, the litmus conformance matrix,
// trace recording, and the scenario figure all enumerate the same
// Names() list, so adding a row is the whole integration.
package workload

import "fmt"

// row is one named workload. Its build must be deterministic: the same
// (n, seed) always yields a generator producing identical per-core
// streams, and each core's stream must be independent of the order
// cores are driven in (RecordBinary captures core by core; the
// simulator interleaves).
type row struct {
	name     string
	desc     string // one-line parameter summary (Describe)
	scenario bool   // a sharing-pattern scenario (Scenarios)
	build    func(n int, seed int64) (Generator, error)
}

// table lists every workload in enumeration order: the paper's five
// application mixes in Figure 4/5 order, the microbenchmark, then the
// scenario family. Each scenario stresses the protocols on one
// qualitative axis the paper's §8 evaluation differentiates on.
var table = []row{
	// jbb: Java middleware — more private than oltp/apache with
	// moderate object sharing.
	paper("jbb", mix{
		SharedReadFrac: 0.18, MigratoryFrac: 0.12, ProdConsFrac: 0.03, StreamFrac: 0.05,
		PrivateWriteFrac: 0.30, SharedWriteFrac: 0.05,
		PrivateBlocks: 2 << 10, SharedBlocks: 1 << 10, MigratoryBlocks: 384, ProdConsBlocks: 32,
		ThinkMean: 7,
	}),
	// oltp: transaction processing — lock-dominated migratory sharing
	// and substantial read sharing; the paper's biggest beneficiary of
	// direct requests.
	paper("oltp", mix{
		SharedReadFrac: 0.28, MigratoryFrac: 0.22, ProdConsFrac: 0.04, StreamFrac: 0.03,
		PrivateWriteFrac: 0.25, SharedWriteFrac: 0.06,
		PrivateBlocks: 1536, SharedBlocks: 1536, MigratoryBlocks: 512, ProdConsBlocks: 32,
		ThinkMean: 8,
	}),
	// apache: static web serving — wide read sharing of file/cache
	// structures with some migratory metadata.
	paper("apache", mix{
		SharedReadFrac: 0.34, MigratoryFrac: 0.14, ProdConsFrac: 0.03, StreamFrac: 0.04,
		PrivateWriteFrac: 0.25, SharedWriteFrac: 0.05,
		PrivateBlocks: 1792, SharedBlocks: 1536, MigratoryBlocks: 384, ProdConsBlocks: 32,
		ThinkMean: 7,
	}),
	// barnes: N-body tree with migratory body updates and moderate read
	// sharing of tree cells.
	paper("barnes", mix{
		SharedReadFrac: 0.22, MigratoryFrac: 0.10, ProdConsFrac: 0.03, StreamFrac: 0.02,
		PrivateWriteFrac: 0.30, SharedWriteFrac: 0.04,
		PrivateBlocks: 2 << 10, SharedBlocks: 1 << 10, MigratoryBlocks: 256, ProdConsBlocks: 32,
		ThinkMean: 6,
	}),
	// ocean: grid solver — mostly private with nearest-neighbour
	// boundary exchange and heavy streaming (high capacity-miss rate,
	// the paper's most bandwidth-hungry workload).
	paper("ocean", mix{
		SharedReadFrac: 0.04, MigratoryFrac: 0.01, ProdConsFrac: 0.12, StreamFrac: 0.22,
		PrivateWriteFrac: 0.35, SharedWriteFrac: 0.05,
		PrivateBlocks: 3 << 10, SharedBlocks: 512, MigratoryBlocks: 64, ProdConsBlocks: 64,
		ThinkMean: 4,
	}),
	{name: "micro", desc: "16K-block shared table, uniform random, 30% writes", build: newMicro},
	scenario("pipeline", defaultPipeline(), newPipeline),
	scenario("migratory", defaultMigratory(), newMigratory),
	scenario("convoy", defaultConvoy(), newConvoy),
	scenario("falseshare", defaultFalseSharing(), newFalseSharing),
	scenario("zipf", defaultZipf(), newZipf),
	scenario("phased", defaultPhased(), newPhased),
}

// paper binds one of the paper's application mixes to its name. It
// runs with the paper's consolidation domains: four 16-core copies on
// 64 cores, shrinking to the system size below 16 cores.
func paper(name string, m mix) row {
	return row{name: name, desc: m.describe(), build: func(n int, seed int64) (Generator, error) {
		sized := m
		sized.DomainCores = min(n, 16)
		return newMix(sized, n, seed)
	}}
}

// scenario binds a scenario's default parameters and constructor to
// its name.
func scenario[P interface{ describe() string }](name string, p P, build func(P, int, int64) (Generator, error)) row {
	return row{name: name, desc: p.describe(), scenario: true, build: func(n int, seed int64) (Generator, error) {
		return build(p, n, seed)
	}}
}

// lookup finds a workload's row.
func lookup(name string) (row, bool) {
	for _, r := range table {
		if r.name == name {
			return r, true
		}
	}
	return row{}, false
}

// names lists the names of the rows keep accepts, in table order.
func names(keep func(row) bool) []string {
	var out []string
	for _, r := range table {
		if keep(r) {
			out = append(out, r.name)
		}
	}
	return out
}

// Named builds the named workload's generator for n cores with the
// given seed. Unknown names and invalid construction parameters return
// errors (the latter wrapping ErrBadParams), never panic.
func Named(name string, n int, seed int64) (Generator, error) {
	r, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	g, err := r.build(n, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	return g, nil
}

// Known reports whether name is a workload in the table.
func Known(name string) bool {
	_, ok := lookup(name)
	return ok
}

// Names lists every workload in table order: the paper's five
// application mixes in figure order (jbb, oltp, apache, barnes, ocean),
// the microbenchmark, then the sharing-pattern scenario family
// (Scenarios).
func Names() []string { return names(func(row) bool { return true }) }

// Describe returns the workload's one-line parameter summary.
func Describe(name string) (string, bool) {
	r, ok := lookup(name)
	return r.desc, ok
}

// Scenarios lists the synthetic sharing-pattern scenario family in
// table order.
func Scenarios() []string { return names(func(r row) bool { return r.scenario }) }

// PaperWorkloads lists the paper's five application workloads in figure
// order: every row but the microbenchmark and the scenarios.
func PaperWorkloads() []string {
	return names(func(r row) bool { return !r.scenario && r.name != "micro" })
}
