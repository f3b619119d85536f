// Command bench runs the representative performance grid and records the
// result as a machine-readable BENCH_<date>.json artifact, so the
// simulator's perf trajectory (ns/op, allocs/op, simulated cycles per
// wall-clock second) is a committed record rather than a claim.
//
// Usage:
//
//	bench                 # full grid, writes BENCH_<date>.json
//	bench -quick          # smoke scale (CI)
//	bench -out FILE       # override the output path
//	bench -compare FILE   # print an old-vs-new table against a prior record
//	bench -gate FILE      # CI regression gate: exit non-zero on a >2x
//	                      # ns/op, allocs/op or bytes/op regression vs FILE,
//	                      # measured at FILE's GOMAXPROCS
//
// Without -compare, the comparison baseline is the BENCH_*.json in the
// working directory with the newest JSON date field (filename breaks
// ties; `*_before.json` snapshots, the file being written, and records
// at the other -quick scale are skipped). Selection is by the record's
// own date, not file mtime, so it is deterministic after a fresh clone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	patch "patch"
	"patch/internal/predictor"
	"patch/internal/sim"
	"patch/internal/workload"
)

// Record is one benchmark scenario's measurement.
type Record struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SimCyclesPerOp  float64 `json:"sim_cycles_per_op"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	Iterations      int     `json:"iterations"`
	// HostDependent marks a scenario whose wall clock scales with the
	// host's core count (parallel sweeps). The regression gate skips
	// its ns/op: a baseline recorded on different hardware would gate
	// the hardware, not the code. Allocs are still gated.
	HostDependent bool `json:"host_dependent,omitempty"`
}

// File is the on-disk BENCH_<date>.json schema.
type File struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick"`
	Records    []Record `json:"records"`
}

// scenario is one named benchmark body; it returns the simulated cycles
// covered by a single iteration so throughput can be derived.
// hostDependent propagates to the record (see Record.HostDependent).
// release, when set, drops what the body keeps between iterations, so
// that state does not stay live and pace the garbage collector while
// later scenarios run.
type scenario struct {
	name          string
	run           func(b *testing.B) (simCycles float64)
	hostDependent bool
	release       func()
}

// scenarioErr carries a scenario failure out of the benchmark body:
// b.Fatal aborts the body via runtime.Goexit without surfacing the
// error, so fail records it where the driver can report it.
var scenarioErr error

func fail(b *testing.B, err error) {
	if scenarioErr == nil {
		scenarioErr = err
	}
	b.Fatal(err)
}

// simSeeds is the seed set a sim scenario's iterations cycle through.
const simSeeds = 8

// simScenario measures one simulation per iteration. The System is
// built once and Reset-reused across iterations (and across the quick
// mode's repetitions), so the recorded allocs/op and bytes/op reflect
// the steady state a sweep worker sees, not per-run world construction.
// Iteration i runs seed i%simSeeds+1, and before the first timed
// iteration the System runs every seed once, untimed: the arenas reach
// the set's high-water marks there, so what an iteration allocates does
// not depend on how many iterations testing.Benchmark's ramp asks for.
func simScenario(name string, cfg sim.Config) scenario {
	var sys *sim.System
	run := func(b *testing.B, seed int) float64 {
		c := cfg
		c.Seed = int64(seed%simSeeds + 1)
		c.SkipChecks = true
		var err error
		if sys == nil {
			sys, err = sim.NewSystem(c)
		} else {
			err = sys.Reset(c)
		}
		if err != nil {
			fail(b, err)
		}
		r, err := sys.Run()
		if err != nil {
			sys = nil // a failed run is not reusable
			fail(b, err)
		}
		return float64(r.Cycles)
	}
	return scenario{name: name, run: func(b *testing.B) float64 {
		if sys == nil {
			b.StopTimer()
			for seed := 0; seed < simSeeds; seed++ {
				run(b, seed)
			}
			b.StartTimer()
		}
		var cycles float64
		for i := 0; i < b.N; i++ {
			cycles += run(b, i)
		}
		return cycles / float64(b.N)
	}, release: func() { sys = nil }}
}

func scenarios(quick bool) []scenario {
	ops := 300
	if quick {
		ops = 60
	}
	base := func(p sim.Kind, wl string) sim.Config {
		return sim.Config{Protocol: p, Cores: 16, OpsPerCore: ops, WarmupOps: 2 * ops, Workload: wl}
	}
	patchAll := base(sim.PATCH, "oltp")
	patchAll.Policy = predictor.All
	patchAll.BestEffort = true

	sweepOps := 200
	seeds := 2
	if quick {
		sweepOps, seeds = 50, 1
	}
	m := patch.Matrix{
		Base: patch.Config{
			Cores: 16, OpsPerCore: sweepOps, WarmupOps: 2 * sweepOps,
			Workload: "oltp", Seed: 1, SkipChecks: true,
		},
		Protocols: patch.FigureProtocols(),
		Seeds:     seeds,
	}

	// One cell x 8 seed replicas, at one and four workers. The pair is
	// the committed evidence for the replica-sharded scheduler: under
	// cell-granular scheduling a single cell serialised its seeds and
	// the two records were equal; now w1/w4 ns/op is the wall-clock
	// speedup, bounded by the host's cores (the record's gomaxprocs
	// field says how many this machine could contribute).
	shardOps := 150
	if quick {
		shardOps = 40
	}
	shard := patch.Matrix{
		Base: patch.Config{
			Protocol: patch.PATCH, Variant: patch.VariantAll,
			Cores: 16, OpsPerCore: shardOps, WarmupOps: 2 * shardOps,
			Workload: "oltp", Seed: 1, SkipChecks: true,
		},
		Seeds: 8,
	}
	w4 := sweepScenario("sweep/1cell-8seeds-w4", shard, 4)
	w4.hostDependent = true
	return []scenario{
		simScenario("sim/directory-micro", base(sim.Directory, "micro")),
		simScenario("sim/patch-all-oltp", patchAll),
		simScenario("sim/tokenb-micro", base(sim.TokenB, "micro")),
		sweepScenario("sweep/fig4-oltp-grid", m, 1),
		sweepScenario("sweep/1cell-8seeds-w1", shard, 1),
		w4,
	}
}

// sweepScenario measures one whole Sweep per iteration at a fixed
// worker count.
func sweepScenario(name string, m patch.Matrix, workers int) scenario {
	return scenario{name: name, run: func(b *testing.B) float64 {
		var cycles float64
		for i := 0; i < b.N; i++ {
			res, err := patch.Sweep(context.Background(), m, patch.Workers(workers))
			if err != nil {
				fail(b, err)
			}
			for _, c := range res.Cells {
				for _, r := range c.Summary.Results {
					cycles += float64(r.Cycles)
				}
			}
		}
		return cycles / float64(b.N)
	}}
}

// traceScenarios measures replay startup (open + one op per core) of a
// recorded trace: the streamer reads fixed per-core windows, so its
// cost stays O(cores x window) however long the trace. Recording it
// keeps that property in the committed perf trajectory.
func traceScenarios(dir string, quick bool) ([]scenario, error) {
	cores, ops := 16, 20000
	if quick {
		ops = 4000
	}
	path := filepath.Join(dir, "bench.bin")
	g, err := workload.Named("oltp", cores, 1)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := workload.RecordBinary(f, g, cores, ops); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	startup := func(b *testing.B) float64 {
		for i := 0; i < b.N; i++ {
			r, err := workload.OpenTrace(path, cores)
			if err != nil {
				fail(b, err)
			}
			for c := 0; c < cores; c++ {
				r.Next(c)
			}
			r.Close()
		}
		return 0
	}
	return []scenario{{name: "trace/stream-binary", run: startup}}, nil
}

func main() {
	quick := flag.Bool("quick", false, "smoke scale (median of 5 single-iteration samples, smaller grid)")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	compare := flag.String("compare", "", "prior BENCH_*.json to diff against (default: newest committed date in cwd)")
	gate := flag.String("gate", "", "baseline BENCH_*.json to gate against: exit non-zero on regression (CI)")
	gateThreshold := flag.Float64("gate-threshold", 2.0, "ns/op, allocs/op or bytes/op ratio that fails the gate")
	flag.Parse()
	if err := benchMain(*quick, *out, *compare, *gate, *gateThreshold); err != nil {
		fatal(err)
	}
}

// benchMain is the whole run behind an error return, so deferred
// cleanup (the recorded-trace temp directory) survives failures that
// would skip it under a direct os.Exit.
func benchMain(quick bool, out, compare, gate string, gateThreshold float64) error {
	date := time.Now().Format("2006-01-02")
	path := out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}
	var base File
	if gate != "" {
		var err error
		if base, err = gateBaseline(gate, quick); err != nil {
			return err
		}
	}

	traceDir, err := os.MkdirTemp("", "bench-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traceDir)
	traceScens, err := traceScenarios(traceDir, quick)
	if err != nil {
		return err
	}

	f := File{Date: date, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: quick}
	for _, sc := range append(scenarios(quick), traceScens...) {
		var simCycles float64
		body := func(b *testing.B) {
			b.ReportAllocs()
			simCycles = sc.run(b)
		}
		var res testing.BenchmarkResult
		if quick {
			res = runMedian(body, 5)
		} else {
			res = testing.Benchmark(body)
		}
		if scenarioErr != nil {
			return fmt.Errorf("%s: %w", sc.name, scenarioErr)
		}
		rec := Record{
			Name:           sc.name,
			NsPerOp:        float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp:    res.AllocsPerOp(),
			BytesPerOp:     res.AllocedBytesPerOp(),
			SimCyclesPerOp: simCycles,
			Iterations:     res.N,
			HostDependent:  sc.hostDependent,
		}
		if res.T > 0 {
			rec.SimCyclesPerSec = simCycles * float64(res.N) / res.T.Seconds()
		}
		f.Records = append(f.Records, rec)
		if sc.release != nil {
			sc.release()
		}
		runtime.GC()
		fmt.Printf("%-24s %12.0f ns/op %10d allocs/op %12d B/op %14.0f simcycles/s\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, rec.SimCyclesPerSec)
	}

	printShardSpeedup(f.Records)

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	basePath := compare
	if basePath == "" {
		basePath = latestBaseline(path, quick)
	}
	if basePath != "" {
		printComparison(basePath, f)
	}

	if gate != "" {
		return runGate(gate, base, f, gateThreshold)
	}
	return nil
}

// gateBaseline reads the gate's baseline before anything is measured,
// refuses one at the other scale (it would compare different grids),
// and sets GOMAXPROCS to the baseline's: ns/op measured at another
// core count compares the runners, not the code.
func gateBaseline(path string, quick bool) (File, error) {
	base, err := readFile(path)
	if err != nil {
		return File{}, fmt.Errorf("gate: %w", err)
	}
	if base.Quick != quick {
		return File{}, fmt.Errorf("gate: scale mismatch: baseline %s has quick=%v, this run quick=%v (regenerate the baseline at the gated scale)",
			path, base.Quick, quick)
	}
	if base.GOMAXPROCS > 0 {
		runtime.GOMAXPROCS(base.GOMAXPROCS)
	}
	return base, nil
}

// readFile reads one BENCH_*.json record.
func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// printShardSpeedup derives the replica-sharding wall-clock speedup
// from the paired single-cell records. It is a property of this run's
// host: a 1-core machine measures ~1x however good the scheduler is.
func printShardSpeedup(records []Record) {
	byName := make(map[string]Record, len(records))
	for _, r := range records {
		byName[r.Name] = r
	}
	w1, ok1 := byName["sweep/1cell-8seeds-w1"]
	w4, ok4 := byName["sweep/1cell-8seeds-w4"]
	if !ok1 || !ok4 || w4.NsPerOp <= 0 {
		return
	}
	fmt.Printf("replica sharding: 1-cell x 8-seed sweep speedup at 4 workers: %.2fx (on %d procs)\n",
		w1.NsPerOp/w4.NsPerOp, runtime.GOMAXPROCS(0))
}

// runGate is the CI regression gate: it diffs the current record
// against the baseline gateBaseline read from basePath and fails
// (non-zero exit) when any shared scenario regressed by more than
// threshold in ns/op, allocs/op or bytes/op.
func runGate(basePath string, base, cur File, threshold float64) error {
	old := make(map[string]Record, len(base.Records))
	for _, r := range base.Records {
		old[r.Name] = r
	}
	var violations []string
	exceeds := func(oldV, newV float64) bool { return oldV > 0 && newV > threshold*oldV }
	for _, r := range cur.Records {
		o, ok := old[r.Name]
		if !ok {
			continue // new scenario: nothing to regress against
		}
		// ns/op of a host-dependent scenario (on either side) compares
		// the runners' core counts, not the code.
		if !r.HostDependent && !o.HostDependent && exceeds(o.NsPerOp, r.NsPerOp) {
			violations = append(violations, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%.2fx > %.2fx)",
				r.Name, o.NsPerOp, r.NsPerOp, r.NsPerOp/o.NsPerOp, threshold))
		}
		if exceeds(float64(o.AllocsPerOp), float64(r.AllocsPerOp)) {
			violations = append(violations, fmt.Sprintf("%s: allocs/op %d -> %d (%.2fx > %.2fx)",
				r.Name, o.AllocsPerOp, r.AllocsPerOp, float64(r.AllocsPerOp)/float64(o.AllocsPerOp), threshold))
		}
		// Bytes, like allocs, are deterministic and hardware-independent;
		// a footprint regression (a dropped free-list, a de-pooled arena)
		// can hide behind a stable allocation count.
		if exceeds(float64(o.BytesPerOp), float64(r.BytesPerOp)) {
			violations = append(violations, fmt.Sprintf("%s: bytes/op %d -> %d (%.2fx > %.2fx)",
				r.Name, o.BytesPerOp, r.BytesPerOp, float64(r.BytesPerOp)/float64(o.BytesPerOp), threshold))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("gate: regression vs %s:\n  %s", basePath, strings.Join(violations, "\n  "))
	}
	fmt.Printf("gate: ok vs %s (no >%.1fx ns/op, allocs/op or bytes/op regression)\n", basePath, threshold)
	return nil
}

// runMedian executes the benchmark body reps times at b.N=1 with its own
// allocation accounting, and returns the median time, allocation count
// and allocated bytes — testing.Benchmark's convergence loop is overkill
// for the CI smoke job, but a single-shot timing is too noisy for the
// regression gate to consume (one GC or scheduler hiccup reads as a 2x
// "regression"). The median of five ignores up to two such samples in
// either direction, where a minimum rewards a lucky one. Each sample
// starts from a collected heap, and the caller releases and collects
// each scenario's state before the next, so no sample's GC pace depends
// on what ran before it. The body runs on its own goroutine because a
// failing body exits via runtime.Goexit (b.Fatal); benchMain then
// reports scenarioErr instead of deadlocking.
func runMedian(body func(b *testing.B), reps int) testing.BenchmarkResult {
	samples := make([]testing.BenchmarkResult, 0, reps)
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		b := &testing.B{N: 1}
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		done := make(chan struct{})
		go func() {
			defer close(done)
			body(b)
		}()
		<-done
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		r := testing.BenchmarkResult{
			N:         1,
			T:         elapsed,
			MemAllocs: after.Mallocs - before.Mallocs,
			MemBytes:  after.TotalAlloc - before.TotalAlloc,
		}
		if scenarioErr != nil {
			return r
		}
		samples = append(samples, r)
	}
	mid := len(samples) / 2
	med := testing.BenchmarkResult{N: 1}
	sort.Slice(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
	med.T = samples[mid].T
	sort.Slice(samples, func(i, j int) bool { return samples[i].MemAllocs < samples[j].MemAllocs })
	med.MemAllocs = samples[mid].MemAllocs
	sort.Slice(samples, func(i, j int) bool { return samples[i].MemBytes < samples[j].MemBytes })
	med.MemBytes = samples[mid].MemBytes
	return med
}

// latestBaseline returns the comparison baseline: the BENCH_*.json
// whose JSON date field is newest, with the lexically greatest filename
// breaking date ties. File modification time is deliberately not
// consulted — after a fresh clone every file carries the same checkout
// mtime, which made the old ModTime-based choice nondeterministic.
// Skipped: the file just written, `*_before.json` pre-change snapshots,
// and unparsable files. Records at the same scale (quick flag) as the
// current run are preferred, so a full run never silently diffs against
// a quick smoke record when a full baseline exists.
func latestBaseline(exclude string, quick bool) string {
	matches, _ := filepath.Glob("BENCH_*.json")
	sort.Strings(matches)
	type candidate struct {
		path, date string
		quick      bool
	}
	var cands []candidate
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(exclude) ||
			strings.HasSuffix(m, "_before.json") {
			continue
		}
		f, err := readFile(m)
		if err != nil || f.Date == "" {
			continue
		}
		cands = append(cands, candidate{path: m, date: f.Date, quick: f.Quick})
	}
	best := ""
	for _, sameScaleOnly := range []bool{true, false} {
		bestDate := ""
		for _, c := range cands {
			if sameScaleOnly && c.quick != quick {
				continue
			}
			// ISO dates compare lexically; candidates arrive in filename
			// order, so >= implements the filename tiebreak.
			if c.date >= bestDate {
				best, bestDate = c.path, c.date
			}
		}
		if best != "" {
			break
		}
	}
	return best
}

func printComparison(basePath string, cur File) {
	base, err := readFile(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return
	}
	old := make(map[string]Record, len(base.Records))
	for _, r := range base.Records {
		old[r.Name] = r
	}
	fmt.Printf("\nvs %s (%s):\n", basePath, base.Date)
	if base.Quick != cur.Quick {
		fmt.Printf("warning: scale mismatch (baseline quick=%v, this run quick=%v) — ratios compare different grids\n",
			base.Quick, cur.Quick)
	}
	fmt.Printf("%-24s %22s %26s\n", "scenario", "ns/op old->new", "allocs/op old->new")
	for _, r := range cur.Records {
		o, ok := old[r.Name]
		if !ok {
			fmt.Printf("%-24s (no baseline)\n", r.Name)
			continue
		}
		fmt.Printf("%-24s %9.0f -> %-9.0f (%s) %9d -> %-9d (%s)\n",
			r.Name, o.NsPerOp, r.NsPerOp, ratio(o.NsPerOp, r.NsPerOp),
			o.AllocsPerOp, r.AllocsPerOp, ratio(float64(o.AllocsPerOp), float64(r.AllocsPerOp)))
	}
}

func ratio(old, new float64) string {
	if old <= 0 || new <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", old/new)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
