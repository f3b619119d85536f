package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"patch"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/sim"
	"patch/service"
)

// A replicaCount holds one replica's exact work counts, read from the
// simulator's public fields after System.Run. They repeat exactly for
// a given configuration.
type replicaCount struct {
	backend      string
	fired        uint64  // events, warmup included
	allOps       uint64  // cores x (warmup + measured)
	ops          uint64  // measured ops
	perCore      float64 // measured ops per core
	cycles       uint64  // measured-phase simulated cycles
	misses       uint64
	msgs         uint64 // messages sent, multicasts once
	delivered    uint64 // message copies delivered
	linkBytes    uint64
	indirect     uint64 // ClassIndirectReq messages
	fwd          uint64 // reissues + persistent requests + tenure timeouts
	bytesPerMiss float64
}

// backendTimes sums one backend's host time per call the benchmark
// makes into the simulator.
type backendTimes struct {
	build, reset, run, check time.Duration
	builds, resets, runs     int
	handle                   time.Duration // inside Handle, handle pass only
	handled                  uint64
}

type simPassOut struct {
	reps  []replicaCount
	times map[string]*backendTimes
}

// simPass drives plan's replicas through the simulator directly, in
// work-list order and with patch.Sweep's reuse rule: System.Reset when
// protocol and core count match the previous replica's, sim.NewSystem
// otherwise. Each call gets a span. With wrapHandle every node's
// Handle is re-registered through a timing wrapper.
func simPass(plan *patch.ReplicaPlan, log *spanLog, name string, wrapHandle bool) (*simPassOut, error) {
	out := &simPassOut{times: map[string]*backendTimes{}}
	for _, b := range backends {
		out.times[b] = &backendTimes{}
	}
	var sys *sim.System
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	top := log.begin(name, -1, -1)
	defer log.end(top)
	for i := 0; i < plan.NumReplicas(); i++ {
		c := plan.ReplicaConfig(i)
		sc := c.ToSim()
		b := backendOf(c)
		t := out.times[b]
		rs := log.begin("replica", i, top)
		var err error
		if sys != nil && sys.Cfg.Protocol == sc.Protocol && sys.Cfg.Cores == sc.Cores {
			sp := log.begin("reset", i, rs)
			err = sys.Reset(sc)
			t.reset += log.end(sp)
			t.resets++
		} else {
			if sys != nil {
				sys.Close()
			}
			sp := log.begin("build", i, rs)
			sys, err = sim.NewSystem(sc)
			t.build += log.end(sp)
			t.builds++
			if err == nil && wrapHandle {
				timeHandlers(sys, t)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		sp := log.begin("run", i, rs)
		r, err := sys.Run()
		t.run += log.end(sp)
		t.runs++
		if err != nil {
			sys = nil // a failed run must not be reused
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		sp = log.begin("check", i, rs)
		err = sys.CheckInvariants()
		t.check += log.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		log.end(rs)
		out.reps = append(out.reps, countReplica(b, sys, r))
	}
	return out, nil
}

// timeHandlers re-registers every node's Handle through a wrapper that
// adds the call's host time and count to t. Registrations survive
// System.Reset, so the wrapper stays for the system's lifetime.
func timeHandlers(sys *sim.System, t *backendTimes) {
	for i, n := range sys.Nodes {
		h := n.Handle
		sys.Net.Register(msg.NodeID(i), func(now event.Time, m *msg.Message) {
			start := time.Now()
			h(now, m)
			t.handle += time.Since(start)
			t.handled++
		})
	}
}

func countReplica(b string, sys *sim.System, r *sim.Result) replicaCount {
	ns := sys.Net.Stats
	var msgs uint64
	for _, n := range ns.MsgsByClass {
		msgs += n
	}
	cfg := sys.Cfg
	return replicaCount{
		backend:      b,
		fired:        sys.Eng.Fired(),
		allOps:       uint64(cfg.Cores * (cfg.WarmupOps + cfg.OpsPerCore)),
		ops:          r.Ops,
		perCore:      float64(r.Ops) / float64(cfg.Cores),
		cycles:       r.Cycles,
		misses:       r.Misses,
		msgs:         msgs,
		delivered:    ns.Delivered,
		linkBytes:    r.LinkBytes,
		indirect:     ns.MsgsByClass[msg.ClassIndirectReq],
		fwd:          r.Stats.Reissues + r.Stats.PersistentReqs + r.Stats.TenureTimeouts,
		bytesPerMiss: r.BytesPerMiss,
	}
}

// countMetrics sets the per-backend exact-count metrics.
func countMetrics(m metrics, reps []replicaCount) {
	for _, b := range backends {
		var s replicaCount
		for _, r := range reps {
			if r.backend != b {
				continue
			}
			s.fired += r.fired
			s.allOps += r.allOps
			s.ops += r.ops
			s.perCore += r.perCore
			s.cycles += r.cycles
			s.misses += r.misses
			s.msgs += r.msgs
			s.delivered += r.delivered
			s.linkBytes += r.linkBytes
			s.indirect += r.indirect
			s.fwd += r.fwd
		}
		ratio := func(a, b uint64) float64 { return float64(a) / float64(b) }
		m.set("event.events_per_op."+b, ratio(s.fired, s.allOps), "events/op")
		m.set("interconnect.msgs_per_op."+b, ratio(s.msgs, s.ops), "msgs/op")
		m.set("interconnect.copies_per_msg."+b, ratio(s.delivered, s.msgs), "copies/msg")
		m.set("interconnect.link_bytes_per_miss."+b, ratio(s.linkBytes, s.misses), "B/miss")
		if b != "tokenb" {
			m.set("directory.indirect_per_miss."+b, ratio(s.indirect, s.misses), "msgs/miss")
		}
		m.set("protocol.misses_per_op."+b, ratio(s.misses, s.ops), "misses/op")
		m.set("protocol.fwd_progress_per_miss."+b, ratio(s.fwd, s.misses), "events/miss")
		m.set("sim.cycles_per_op."+b, float64(s.cycles)/s.perCore, "cycles/op")
	}
}

// timeMetrics sets the per-backend host-time metrics: call times from
// the span pass, Handle time from the handle pass.
func timeMetrics(m metrics, spans, handles *simPassOut) {
	for _, b := range backends {
		t := spans.times[b]
		var allOps uint64
		for _, r := range spans.reps {
			if r.backend == b {
				allOps += r.allOps
			}
		}
		ms := func(d time.Duration, n int) float64 { return d.Seconds() * 1e3 / float64(n) }
		m.set("sim.run_ns_per_op."+b, float64(t.run.Nanoseconds())/float64(allOps), "ns/op")
		m.set("sim.build_ms."+b, ms(t.build, t.builds), "ms")
		m.set("sim.reset_ms."+b, ms(t.reset, t.resets), "ms")
		m.set("sim.check_ms."+b, ms(t.check, t.runs), "ms")
		h := handles.times[b]
		m.set("protocol.handle_ns_per_msg."+b, float64(h.handle.Nanoseconds())/float64(h.handled), "ns/msg")
	}
}

// callTime is the span pass's time in the calls patch.Sweep's runner
// makes per replica (build or reset, then run), for comparison with
// the untraced RunReplica time.
func (o *simPassOut) callTime() time.Duration {
	var d time.Duration
	for _, t := range o.times {
		d += t.build + t.reset + t.run
	}
	return d
}

func tracedRun(ctx context.Context, w workload, seed int64, data string) (*report, error) {
	rep := &report{Metrics: metrics{}}
	m := rep.Metrics
	log := newSpanLog()
	f, err := setup(ctx, w, seed, data)
	if err != nil {
		return nil, err
	}
	defer f.close()
	plan, err := w.sweep(seed).Plan()
	if err != nil {
		return nil, err
	}

	// The sweep leg over the same configurations: untraced (the
	// baseline, and the timed run's own results) on either side of a
	// profiled stretch, then once with spans around every simulator
	// call and once with Handle timed. Untraced and profiled passes
	// repeat for a second or two, so a small matrix still gives a steady
	// baseline and enough profile samples; the set-up has warmed up.
	runtime.GC()
	base, err := passesFor(ctx, w.sweep(seed), false, time.Second)
	if err != nil {
		return nil, err
	}
	var prof profiler
	if err := prof.start(); err != nil {
		return nil, err
	}
	profiled, err := passesFor(ctx, w.sweep(seed), true, 2*time.Second)
	samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	after, err := passesFor(ctx, w.sweep(seed), false, time.Second)
	if err != nil {
		return nil, err
	}
	base = append(base, after...)
	spanned, err := simPass(plan, log, "span-pass", false)
	if err != nil {
		return nil, err
	}
	handled, err := simPass(plan, log, "handle-pass", true)
	if err != nil {
		return nil, err
	}
	rep.Attempted += (len(base) + len(profiled) + 2) * plan.NumReplicas()
	for _, p := range append(base, profiled...) {
		if p.digest != base[0].digest {
			rep.Failed += plan.NumReplicas()
		}
	}
	// The traced passes must have run the timed run's simulations.
	for i, r := range spanned.reps {
		want := base[0].runs[i].res
		if r.cycles != want.Cycles || r.misses != want.Misses || r.bytesPerMiss != want.BytesPerMiss ||
			r != handled.reps[i] {
			rep.Failed += 2
		}
	}
	countMetrics(m, spanned.reps)
	timeMetrics(m, spanned, handled)
	byLayer := attribute(samples, nil, layerOf)
	var sampled int64
	for _, ns := range byLayer {
		sampled += ns
	}
	var ops, wall float64
	for _, p := range profiled {
		wall += float64(p.wall.Nanoseconds())
		for _, v := range p.totals.ops {
			ops += v
		}
	}
	for _, l := range simLayers {
		share := float64(byLayer[l]) / float64(sampled)
		m.set(l+".self_ns_per_op", share*wall/ops, "ns/op")
	}
	baseWall, baseRun := perPass(base)
	m.set("sweep.overhead_frac", 1-baseRun/baseWall, "ratio")

	// The farm leg: the cache filled for the cached jobs, cold jobs
	// profiled, then (untimed) each cold job's replicas on a fresh
	// runner as the server's pool runs them, the cached jobs profiled,
	// and the output checks.
	leg, err := primeCache(ctx, f, w, seed)
	if err != nil {
		return nil, err
	}
	if err := prof.start(); err != nil {
		return nil, err
	}
	err = leg.runColdJobs(ctx, f, w.coldJobs)
	coldSamples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	var overhead []float64
	for k, cm := range leg.coldM {
		p, err := sweepPass(ctx, cm, false, nil)
		if err != nil {
			return nil, err
		}
		overhead = append(overhead, (leg.cold[k].total().Seconds()-p.totals.runSecs())*1e3)
	}
	if err := prof.start(); err != nil {
		return nil, err
	}
	err = leg.runCachedJobs(ctx, f, w.cachedJobs)
	cachedSamples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	if err := leg.check(ctx); err != nil {
		return nil, err
	}
	rep.Attempted += len(leg.cold) + len(leg.cached)
	rep.Failed += leg.failed
	jobs := append(append([]jobRun(nil), leg.cold...), leg.cached...)
	for i, j := range jobs {
		js := log.add("job", i, -1, j.start, j.total())
		log.add("submit", i, js, j.start, j.submit)
		log.add("wait", i, js, j.start.Add(j.submit), j.wait)
		log.add("result", i, js, j.start.Add(j.submit+j.wait), j.result)
	}
	submit := func(j jobRun) time.Duration { return j.submit }
	wait := func(j jobRun) time.Duration { return j.wait }
	result := func(j jobRun) time.Duration { return j.result }
	m.set("service.submit_ms.p50", median(phaseMillis(jobs, submit)), "ms")
	m.set("service.result_ms.p50", median(phaseMillis(jobs, result)), "ms")
	m.set("service.wait_ms.cold.p50", median(phaseMillis(leg.cold, wait)), "ms")
	m.set("service.wait_ms.cached.p50", median(phaseMillis(leg.cached, wait)), "ms")
	m.set("service.overhead_ms.cold.p50", median(overhead), "ms")
	m.set("service.cache_hit_frac.cold", hitFrac(leg.cold), "ratio")
	m.set("service.cache_hit_frac.cached", hitFrac(leg.cached), "ratio")
	for _, ph := range []struct {
		name    string
		samples []cpuSample
		jobs    int
		buckets []string
	}{
		{"cold", coldSamples, len(leg.cold), farmColdBuckets},
		{"cached", cachedSamples, len(leg.cached), farmCachedBuckets},
	} {
		byBucket := attribute(ph.samples, nil, farmBucketOf)
		for _, b := range ph.buckets {
			m.set(b+".self_us_per_job."+ph.name, float64(byBucket[b])/1e3/float64(ph.jobs), "us/job")
		}
	}
	if err := serviceCalls(m, f, leg); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0

	path := filepath.Join(data, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := log.write(path); err != nil {
		return nil, err
	}
	printTrace(base, profiled, spanned, handled, samples, log, path, rep)
	return rep, nil
}

// passesFor runs sweep passes of m until at least d has passed, one at
// least.
func passesFor(ctx context.Context, m patch.Matrix, labels bool, d time.Duration) ([]*pass, error) {
	var out []*pass
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		p, err := sweepPass(ctx, m, labels, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// perPass returns the mean wall time and time inside RunReplica of
// passes, in seconds.
func perPass(passes []*pass) (wall, run float64) {
	for _, p := range passes {
		wall += p.wall.Seconds()
		run += p.totals.runSecs()
	}
	n := float64(len(passes))
	return wall / n, run / n
}

// hitFrac is the share of the jobs' replicas served from the cache.
func hitFrac(jobs []jobRun) float64 {
	var hits, total int
	for _, j := range jobs {
		hits += j.status.CacheHits
		total += j.status.Total
	}
	return float64(hits) / float64(total)
}

// serviceCalls times direct calls into the service layer on the run's
// own data: the cached matrix's fingerprints, its results in the
// server's cache (memory), in a fresh cache over the same directory
// (disk), written to a fresh cache and to a fresh job journal, and a
// second server's Restore of that journal: one job of the cached
// matrix, every replica done.
func serviceCalls(m metrics, f *farm, leg *farmLeg) error {
	plan, err := leg.cachedM.Plan()
	if err != nil {
		return err
	}
	n := plan.NumReplicas()
	perCall := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(n) }
	keys := make([]string, n)
	start := time.Now()
	for i := range keys {
		keys[i] = plan.ReplicaConfig(i).Fingerprint()
	}
	m.set("service.fingerprint_us", perCall(time.Since(start)), "us")

	results := make([]*patch.Result, n)
	start = time.Now()
	for i, k := range keys {
		results[i], _ = f.cache.Get(k)
	}
	m.set("service.cache_get_us.mem", perCall(time.Since(start)), "us")

	disk, err := service.NewResultCache(filepath.Join(f.dir, "cache"))
	if err != nil {
		return err
	}
	start = time.Now()
	for _, k := range keys {
		if _, ok := disk.Get(k); !ok {
			return fmt.Errorf("disk cache misses %s", k)
		}
	}
	m.set("service.cache_get_us.disk", perCall(time.Since(start)), "us")

	for _, r := range results {
		if r == nil {
			return fmt.Errorf("memory cache misses a cached replica")
		}
	}
	fresh, err := service.NewResultCache(filepath.Join(f.dir, "put-cache"))
	if err != nil {
		return err
	}
	start = time.Now()
	for i, k := range keys {
		fresh.Put(k, results[i])
	}
	m.set("service.cache_put_us", perCall(time.Since(start)), "us")

	store, err := service.OpenJobStore(filepath.Join(f.dir, "journal"))
	if err != nil {
		return err
	}
	if err := store.SaveSpec("journal", 1, "", service.JobSpec{Matrix: leg.cachedM}); err != nil {
		return err
	}
	start = time.Now()
	for i, r := range results {
		if err := store.AppendResult("journal", i, r); err != nil {
			return err
		}
	}
	m.set("service.journal_append_us", perCall(time.Since(start)), "us")

	// The run's own store is empty by now: the client forgets every job
	// it has finished with.
	second := service.New(service.Config{MaxJobs: 1, Workers: 1, Store: store})
	start = time.Now()
	restored, err := second.Restore()
	m.set("service.restore_ms", time.Since(start).Seconds()*1e3, "ms")
	if err != nil {
		return err
	}
	if restored != 1 {
		return fmt.Errorf("restore found %d jobs, want 1", restored)
	}
	return nil
}

// printTrace prints what the traced run measured beyond its metrics:
// the digest, the tracing overhead, each layer's share per backend,
// and span self times.
func printTrace(base, profiled []*pass, spanned, handled *simPassOut, samples []cpuSample, log *spanLog, path string, rep *report) {
	fmt.Printf("digest: sha256:%s (sweep CSV)\n", base[0].digest)
	fmt.Printf("ok_frac: %.4f (%d of %d operations passed the output check)\n",
		float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), rep.Attempted-rep.Failed, rep.Attempted)
	baseWall, baseRun := perPass(base)
	profWall, _ := perPass(profiled)
	fmt.Printf("tracing overhead against the untraced passes (per pass: %.4f s in RunReplica, %.4f s wall; %d passes):\n",
		baseRun, baseWall, len(base))
	fmt.Printf("  cpu profile       %+6.1f%% (sweep wall, %d passes)\n", 100*(profWall/baseWall-1), len(profiled))
	fmt.Printf("  call spans        %+6.1f%% (build/reset + run, one pass)\n", 100*(spanned.callTime().Seconds()/baseRun-1))
	fmt.Printf("  Handle wrappers   %+6.1f%% (build/reset + run, one pass)\n", 100*(handled.callTime().Seconds()/baseRun-1))
	fmt.Println("sweep-leg cpu share by layer, per backend:")
	for _, b := range backends {
		byLayer := attribute(samples, func(s cpuSample) bool { return s.labels["backend"] == b }, layerOf)
		var total int64
		for _, ns := range byLayer {
			total += ns
		}
		fmt.Printf("  %-9s", b)
		for _, l := range sortedNames(byLayer) {
			fmt.Printf(" %s %.1f%%", l, 100*float64(byLayer[l])/float64(total))
		}
		fmt.Println()
	}
	fmt.Printf("span self time (%d spans, written to %s):\n", len(log.spans), path)
	self := selfTimes(log.spans)
	for _, n := range sortedNames(self) {
		fmt.Printf("  %-12s %10.3f ms\n", n, self[n].Seconds()*1e3)
	}
	for _, n := range sortedNames(rep.Metrics) {
		fmt.Printf("  %-38s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
