// Command perfbench is the repository's benchmark. One process runs one
// workload for a given seed and prints, as the last line of its
// standard output, a JSON object with the run's output check and its
// metrics: the end-to-end metrics by default, the per-layer metrics of
// a separate traced run with -trace 1. See README.md for the
// workloads, the metrics and what each should move.
//
//	perfbench -workload paper-grid -seed 1 -seconds 40 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"patch"
)

// A metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is the run's last line of output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-grid or checked-faults")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "how long the timed run measures")
	trace := flag.Int("trace", 0, "1: a traced run printing per-layer metrics instead")
	data := flag.String("data", ".bench_build", "directory for the run's scratch data")
	flag.Parse()

	rep, err := run(*name, *seed, *seconds, *trace, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is undefined\n", n)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds, trace int, data string) (*report, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	fmt.Printf("workload %s, seed %d\n", w.name, seed)
	switch trace {
	case 0:
		return timedRun(ctx, w, seed, time.Duration(seconds)*time.Second, data)
	case 1:
		return tracedRun(ctx, w, seed, data)
	}
	return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
}

// A timed run sets up at least minSetups times, and again until
// setupWork has passed; setup_s is the median. One set-up takes about
// a fifth of a second (checked-faults) to about a second (paper-grid).
const (
	minSetups = 5
	setupWork = 2 * time.Second
)

// setup does what a user's sweep and server start need before the
// first timed operation: plan expansion, a fresh data directory and
// server with Restore, and an untimed warm-up of one sweep replica per
// backend plus one cold and one cached job. Filling the cache for the
// cached jobs comes after it (primeCache): it prepares the benchmark's
// input, not the program.
func setup(ctx context.Context, w workload, seed int64, data string) (*farm, error) {
	sweepM := w.sweep(seed)
	plan, err := sweepM.Plan()
	if err != nil {
		return nil, fmt.Errorf("sweep matrix: %w", err)
	}
	warmSeed, _, firstCached := jobSeeds(seed)
	cachedM := w.job(seed, firstCached)
	cachedM.Seeds = w.cachedSeeds
	if _, err := cachedM.Plan(); err != nil {
		return nil, fmt.Errorf("job matrix: %w", err)
	}
	f, err := startFarm(data)
	if err != nil {
		return nil, fmt.Errorf("start farm: %w", err)
	}
	if err := warmUp(ctx, f, w, seed, warmSeed, plan); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func timedRun(ctx context.Context, w workload, seed int64, window time.Duration, data string) (*report, error) {
	g := newHostGauge(time.Second)
	g.sample()
	var setups []interval
	var f *farm
	for first := time.Now(); len(setups) < minSetups || time.Since(first) < setupWork; {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
			// Each set-up starts on a collected heap, so the garbage of
			// those before it does not slow it.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if f, err = setup(ctx, w, seed, data); err != nil {
			return nil, err
		}
		setups = append(setups, interval{start, time.Now()})
		runtime.GC()
		g.sample()
	}
	defer f.close()
	leg, err := primeCache(ctx, f, w, seed)
	if err != nil {
		return nil, err
	}

	// Each round runs its share of the cold jobs, then of the cached
	// jobs, then sweep passes: one, and more while one as long as the
	// last would end by the round's share of the window. After every
	// phase and pass, garbage is collected, so no phase carries the
	// previous one's into its timings and no collection runs beside the
	// gauge's sample that follows; the gauge also samples about once a
	// second inside passes.
	sweepM := w.sweep(seed)
	var passes []*pass
	var rounds []roundEnd
	gcAndSample := func() {
		runtime.GC()
		g.sample()
	}
	gcAndSample()
	start := time.Now()
	for r := 1; r <= w.rounds; r++ {
		if err := leg.runColdJobs(ctx, f, w.coldJobs*r/w.rounds-len(leg.cold)); err != nil {
			return nil, err
		}
		gcAndSample()
		if err := leg.runCachedJobs(ctx, f, w.cachedJobs*r/w.rounds-len(leg.cached)); err != nil {
			return nil, err
		}
		gcAndSample()
		due := window * time.Duration(r) / time.Duration(w.rounds)
		for n := 0; n == 0 || time.Since(start)+passes[len(passes)-1].wall <= due; n++ {
			p, err := sweepPass(ctx, sweepM, false, g)
			if err != nil {
				return nil, err
			}
			gcAndSample()
			passes = append(passes, p)
		}
		rounds = append(rounds, roundEnd{len(leg.cold), len(leg.cached), len(passes)})
	}
	elapsed := time.Since(start)
	// The farm jobs' output check runs after the window.
	if err := leg.check(ctx); err != nil {
		return nil, err
	}

	rep := &report{Metrics: metrics{}}
	replicas := len(passes[0].runs)
	for _, p := range passes {
		rep.Attempted += replicas
		if p.digest != passes[0].digest {
			rep.Failed += replicas
		}
	}
	rep.Attempted += len(leg.cold) + len(leg.cached)
	rep.Failed += leg.failed
	rep.Correct = rep.Failed == 0

	m, raw := rep.Metrics, metrics{}
	if err := endToEnd(m, g, setups, passes, leg, true); err != nil {
		return nil, err
	}
	if err := endToEnd(raw, g, setups, passes, leg, false); err != nil {
		return nil, err
	}
	m.set("max_rss_mb", maxRSSMB(), "MB")
	raw.set("max_rss_mb", m["max_rss_mb"].Value, "MB")
	for _, ph := range []struct {
		name string
		jobs []jobRun
	}{{"cold", leg.cold}, {"cached", leg.cached}} {
		ms := latencies(ph.jobs, g, true)
		pct, v, err := tail(ms)
		if err != nil {
			return nil, fmt.Errorf("job_ms.%s: %w", ph.name, err)
		}
		fmt.Printf("job_ms.%s: %d jobs, p50 %.3f ms, p%d %.3f ms (scaled)\n", ph.name, len(ms), median(ms), pct, v)
	}
	fmt.Printf("set-up: %d times (setup_s is the median)\n", len(setups))
	fmt.Printf("measured %.1f s: %d farm jobs, %d sweep passes of %d replicas (sweep_s p50 over %d passes)\n",
		elapsed.Seconds(), len(leg.cold)+len(leg.cached), len(passes), replicas, len(passes))
	printRounds(rounds, leg, passes, g)
	fmt.Printf("reference loop: %s\n", g.summary())
	fmt.Printf("data dir filesystem: %s\n", f.fsType())
	fmt.Printf("digest: sha256:%s (sweep CSV)\n", passes[0].digest)
	fmt.Printf("ok_frac: %.4f (%d of %d operations passed the output check)\n",
		float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), rep.Attempted-rep.Failed, rep.Attempted)
	fmt.Printf("  %-28s %14s %14s\n", "metric", "scaled", "unscaled")
	for _, n := range sortedNames(m) {
		fmt.Printf("  %-28s %14.6g %14.6g %s\n", n, m[n].Value, raw[n].Value, m[n].Unit)
	}
	return rep, nil
}

// An interval is a stretch of a run's time.
type interval struct{ from, to time.Time }

// endToEnd sets the host-time end-to-end metrics of a timed run from
// the program time of each set-up, pass, replica and job: scaled by the
// host gauge when scaled is set.
func endToEnd(m metrics, g *hostGauge, setups []interval, passes []*pass, leg *farmLeg, scaled bool) error {
	var secs []float64
	for _, s := range setups {
		secs = append(secs, g.programTime(s.from, s.to, scaled).Seconds())
	}
	m.set("setup_s", median(secs), "s")
	var walls []float64
	ops, run := map[string]float64{}, map[string]float64{}
	for _, p := range passes {
		walls = append(walls, g.programTime(p.start, p.start.Add(p.wall), scaled).Seconds())
		for _, r := range p.runs {
			b := backendOf(r.cfg)
			ops[b] += simOps(r.cfg)
			run[b] += g.programTime(r.start, r.start.Add(r.dur), scaled).Seconds()
		}
	}
	m.set("sweep_s", median(walls), "s")
	for _, b := range backends {
		m.set("sim_ops_per_s."+b, ops[b]/run[b], "ops/s")
	}
	m.set("job_ms.cold.p50", median(latencies(leg.cold, g, scaled)), "ms")
	cached := latencies(leg.cached, g, scaled)
	m.set("job_ms.cached.p50", median(cached), "ms")
	// The cold jobs' tail is printed but not reported: across ten runs
	// on a 2-vCPU VM their p90 spread wider than any bound the benchmark
	// may set (see README.md).
	hi, err := p90(cached)
	if err != nil {
		return fmt.Errorf("job_ms.cached: %w", err)
	}
	m.set("job_ms.cached.p90", hi, "ms")
	return nil
}

// latencies returns the jobs' latencies in milliseconds of program
// time, scaled by the host gauge when scaled is set.
func latencies(jobs []jobRun, g *hostGauge, scaled bool) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = float64(g.programTime(j.start, j.start.Add(j.total()), scaled)) / float64(time.Millisecond)
	}
	return out
}

// A roundEnd counts the cold jobs, cached jobs and sweep passes run by
// the end of a round of the timed window.
type roundEnd struct{ cold, cached, passes int }

// printRounds prints each round's unscaled job latency medians and mean
// pass time, which show how far the host's speed moved within the run.
func printRounds(rounds []roundEnd, leg *farmLeg, passes []*pass, g *hostGauge) {
	var prev roundEnd
	for i, r := range rounds {
		var wall time.Duration
		for _, p := range passes[prev.passes:r.passes] {
			wall += g.programTime(p.start, p.start.Add(p.wall), false)
		}
		fmt.Printf("round %d, unscaled: cold p50 %.3f ms, cached p50 %.3f ms, %d passes of %.3f s\n", i+1,
			median(phaseMillis(leg.cold[prev.cold:r.cold], jobRun.total)),
			median(phaseMillis(leg.cached[prev.cached:r.cached], jobRun.total)),
			r.passes-prev.passes, wall.Seconds()/float64(r.passes-prev.passes))
		prev = r
	}
}

// warmUp runs, untimed, the first replica of each backend in the sweep
// matrix, then one cold job and the same job again from the cache.
func warmUp(ctx context.Context, f *farm, w workload, seed, warmSeed int64, plan *patch.ReplicaPlan) error {
	r := patch.NewRunner()
	defer r.Close()
	seen := map[string]bool{}
	for i := 0; i < plan.NumReplicas() && len(seen) < len(backends); i++ {
		c := plan.ReplicaConfig(i)
		if seen[backendOf(c)] {
			continue
		}
		seen[backendOf(c)] = true
		if _, err := r.RunReplica(c); err != nil {
			return err
		}
	}
	m := w.job(seed, warmSeed)
	for i := 0; i < 2; i++ {
		if _, err := f.runJob(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
