package main

import (
	"context"
	"os/exec"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"patch"
)

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	pct, v, err := tail(xs)
	if err != nil || pct != 90 || v != 90 {
		t.Errorf("tail of 100 samples = p%d %v (%v), want p90 90", pct, v, err)
	}
	pct, v, err = tail(append(xs, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110))
	if err != nil || pct != 90 || v != 99 {
		t.Errorf("tail of 110 samples = p%d %v (%v), want p90 99", pct, v, err)
	}
	if pct, _, err := tail(xs[:40]); err != nil || pct != 75 {
		t.Errorf("tail of 40 samples = p%d (%v), want p75", pct, err)
	}
	if _, _, err := tail(xs[:10]); err == nil {
		t.Error("tail of 10 samples succeeded; no percentile has 10 samples beyond it")
	}
	if v, err := p90(xs); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %v (%v), want 90", v, err)
	}
	if _, err := p90(xs[:99]); err == nil {
		t.Error("p90 of 99 samples succeeded, want a refusal")
	}
}

// TestEveryPackageHasALayer keeps repoLayers in step with the module:
// each package go list reports maps to a layer, and no entry is stale.
func TestEveryPackageHasALayer(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		listed[pkg] = true
		if _, ok := repoLayers[pkg]; !ok {
			t.Errorf("package %s has no layer in repoLayers", pkg)
		}
	}
	for pkg := range repoLayers {
		if !listed[pkg] {
			t.Errorf("repoLayers names %s, which go list does not report", pkg)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"patch/internal/event.(*Engine).Run":                     "patch/internal/event",
		"patch.(*sweepWorker).RunReplica":                        "patch",
		"patch/internal/addrmap.(*Map[go.shape.uint64]).Ptr":     "patch/internal/addrmap",
		"patch/internal/workload.glob..func1":                    "patch/internal/workload",
		"runtime.mallocgc":                                       "runtime",
		"encoding/json.(*decodeState).object":                    "encoding/json",
		"sync.(*Pool[go.shape.*patch/internal/msg.Message]).Get": "sync",
		"main.(*timedRunner).RunReplica":                         "main",
		"crypto/internal/fips140/sha256.blockAMD64":              "crypto/internal/fips140/sha256",
		"patch/internal/protocol/tokenb.(*Node).Handle":          "patch/internal/protocol/tokenb",
		"internal/runtime/syscall.Syscall6":                      "internal/runtime/syscall",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeWalksToRecognisedFrame(t *testing.T) {
	samples := []cpuSample{
		{funcs: []string{"patch/internal/event.(*Engine).Run"}, ns: 5},
		{funcs: []string{"math/rand.(*Rand).Int63", "patch/internal/workload.(*Mix).Next"}, ns: 7},
		{funcs: []string{"runtime.mallocgc", "patch/internal/cache.New"}, ns: 3},
		{funcs: []string{"sort.Slice"}, ns: 2},
	}
	got := attribute(samples, nil, layerOf)
	want := map[string]int64{"event": 5, "workload": 7, "runtime": 3, "other": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attribute = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	// replica [0,100) holds build [10,30) and run [30,90); run holds a
	// nested span [40,50).
	spans := []span{
		{Name: "replica", Parent: -1, Start: 0, End: 100},
		{Name: "build", Parent: 0, Start: 10, End: 30},
		{Name: "run", Parent: 0, Start: 30, End: 90},
		{Name: "handle", Parent: 2, Start: 40, End: 50},
		{Name: "replica", Parent: -1, Start: 100, End: 110},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"replica": 20 + 10, "build": 20, "run": 50, "handle": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestParseProfileKeepsLabelsAndStacks(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	var sink uint64
	pprof.Do(context.Background(), pprof.Labels("backend", "spin"), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				sink = sink*31 + uint64(i)
			}
		}
	})
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var labelled int64
	for _, s := range samples {
		if s.labels["backend"] == "spin" {
			labelled += s.ns
			if len(s.funcs) == 0 {
				t.Fatal("labelled sample without frames")
			}
		}
	}
	if labelled < int64(100*time.Millisecond) {
		t.Errorf("labelled samples hold %v of a 300ms spin", time.Duration(labelled))
	}
	_ = sink
}

// tiny is a workload small enough for tests.
var tiny = workload{
	name: "tiny",
	sweep: func(seed int64) patch.Matrix {
		return patch.Matrix{
			Base:      patch.Config{Cores: 4, OpsPerCore: 5, WarmupOps: 5, Seed: seed},
			Workloads: []string{"oltp", "convoy"},
			Protocols: threeBackends(),
			Seeds:     2,
		}
	},
	job: func(_, jobSeed int64) patch.Matrix {
		return patch.Matrix{
			Base:      patch.Config{Cores: 4, OpsPerCore: 5, WarmupOps: 5, SkipChecks: true, Seed: jobSeed, Workload: "micro"},
			Protocols: threeBackends(),
		}
	},
	coldJobs: 3, cachedJobs: 2, cachedSeeds: 4,
}

func TestCachedJobsHitEveryReplica(t *testing.T) {
	ctx := context.Background()
	f, err := setup(ctx, tiny, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	leg, err := primeCache(ctx, f, tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := leg.runColdJobs(ctx, f, tiny.coldJobs); err != nil {
		t.Fatal(err)
	}
	if err := leg.runCachedJobs(ctx, f, tiny.cachedJobs); err != nil {
		t.Fatal(err)
	}
	if err := leg.check(ctx); err != nil {
		t.Fatal(err)
	}
	if leg.failed != 0 {
		t.Errorf("%d jobs failed their output check", leg.failed)
	}
	for _, j := range leg.cold {
		if j.status.CacheHits != 0 {
			t.Errorf("cold job %s: %d cache hits", j.id, j.status.CacheHits)
		}
	}
	for _, j := range leg.cached {
		if j.status.Total != 3*tiny.cachedSeeds || j.status.CacheHits != j.status.Total {
			t.Errorf("cached job %s: %d of %d replicas hit, want all %d", j.id, j.status.CacheHits, j.status.Total, 3*tiny.cachedSeeds)
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	plan, err := tiny.sweep(3).Plan()
	if err != nil {
		t.Fatal(err)
	}
	a, err := simPass(plan, newSpanLog(), "a", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simPass(plan, newSpanLog(), "b", true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.reps, b.reps) {
		t.Errorf("two traced passes of one seed differ:\n%+v\n%+v", a.reps, b.reps)
	}
	ma, mb := metrics{}, metrics{}
	countMetrics(ma, a.reps)
	countMetrics(mb, b.reps)
	if !reflect.DeepEqual(ma, mb) {
		t.Errorf("exact-count metrics differ between two traced passes")
	}
	// The traced counts are those of the sweep the timed run makes.
	p, err := sweepPass(context.Background(), tiny.sweep(3), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.reps {
		want := p.runs[i].res
		if r.cycles != want.Cycles || r.misses != want.Misses || r.bytesPerMiss != want.BytesPerMiss {
			t.Errorf("replica %d: traced %d cycles %d misses, sweep %d cycles %d misses", i, r.cycles, r.misses, want.Cycles, want.Misses)
		}
	}
}

func TestReferenceLoopIsFixedWork(t *testing.T) {
	l := newRefLoop()
	l.run()
	first := l.sink
	l.run()
	if l.sink != 2*first {
		t.Errorf("two runs of the reference loop computed %d and %d", first, l.sink-first)
	}
	if n := testing.AllocsPerRun(2, l.run); n != 0 {
		t.Errorf("the reference loop allocates %.0f times a run", n)
	}
}

func TestProgramTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Samples of 1x, 3x and 1x refNominal, with 1 s of program time
	// after the first and after the second.
	n := int(refNominal / time.Millisecond)
	g := &hostGauge{samples: []refSample{
		{at(0), at(n)},
		{at(n + 1000), at(4*n + 1000)},
		{at(4*n + 2000), at(5*n + 2000)},
	}}
	whole := interval{at(0), at(5*n + 2000)}
	if got := g.programTime(whole.from, whole.to, false); got != 2*time.Second {
		t.Errorf("unscaled program time %v, want the 2s outside the samples", got)
	}
	// Each second lies between samples averaging 2x refNominal: it
	// counts as half a second at the host's usual speed.
	if got := g.programTime(whole.from, whole.to, true); got != time.Second {
		t.Errorf("scaled program time %v, want 1s", got)
	}
	if got := g.programTime(at(n+500), at(n+1000), true); got != 250*time.Millisecond {
		t.Errorf("half of the first stretch scaled to %v, want 250ms", got)
	}
}
