package main

import (
	"fmt"

	"patch"
)

// A workload is one benchmark input set. Every workload drives both
// user-facing paths, because every run reports every end-to-end metric:
//
//   - the sweep leg runs patch.Sweep passes over sweep, one worker, as a
//     user reproducing a figure does;
//   - the farm leg submits coldJobs jobs of job(seed) at fresh seeds to an
//     in-process sweepd, and cachedJobs jobs of one matrix of job's
//     cells over cachedSeeds seeds, whose every replica is a cache hit.
//
// The timed window runs in rounds, so each metric's samples spread over
// all of it: every round runs its share of the cold and cached jobs,
// then sweep passes up to the round's share of the window.
//
// The workloads differ in what is simulated and in how the run's time
// splits between the two legs.
type workload struct {
	name string
	// sweep returns the sweep leg's matrix for a run seed.
	sweep func(seed int64) patch.Matrix
	// job returns one farm job's matrix for a run seed at a job seed
	// (one seed per cell).
	job func(runSeed, jobSeed int64) patch.Matrix
	// coldJobs and cachedJobs are the farm leg's fixed job counts. Both
	// are at least 100, so each latency p90 has ten samples beyond it;
	// cached jobs are cheap, and more of them steady their p90.
	coldJobs, cachedJobs int
	// cachedSeeds is how many seeds the cached jobs' matrix spans: a
	// cached job serves that many replicas per cell from the cache.
	cachedSeeds int
	// rounds is how many rounds the timed window runs in.
	rounds int
}

// backends names the three protocol backends, in report order.
var backends = []string{"directory", "patch", "tokenb"}

// backendOf maps a replica configuration to its backend name.
func backendOf(c patch.Config) string {
	switch c.Protocol {
	case patch.Directory:
		return "directory"
	case patch.PATCH:
		return "patch"
	case patch.TokenB:
		return "tokenb"
	}
	return c.Protocol.String()
}

// threeBackends is one column per backend: Directory, PATCH-All (the
// paper's headline variant) and TokenB.
func threeBackends() []patch.ProtoVariant {
	return []patch.ProtoVariant{
		{Protocol: patch.Directory},
		{Protocol: patch.PATCH, Variant: patch.VariantAll},
		{Protocol: patch.TokenB},
	}
}

// faultPlan is the checked-faults weather: hop jitter on every link, a
// degradation window over half the links, and staggered congestion
// bursts, all keyed by the run seed.
func faultPlan(seed int64) *patch.FaultPlan {
	return &patch.FaultPlan{
		Seed:      seed,
		HopJitter: 4,
		Degrade:   []patch.FaultWindow{{FromCycle: 2_000, ToCycle: 20_000, Multiplier: 3, LinkFraction: 0.5}},
		Burst:     &patch.CongestionBurst{Period: 4_000, Duration: 400, ExtraCycles: 16},
	}
}

// paperJob is a small figure-shaped job: one of the paper's
// application mixes on the three backends, 16 cores.
func paperJob(_, jobSeed int64) patch.Matrix {
	return patch.Matrix{
		Base:      patch.Config{Cores: 16, OpsPerCore: 10, WarmupOps: 10, SkipChecks: true, Seed: jobSeed},
		Workloads: []string{"oltp"},
		Protocols: threeBackends(),
	}
}

var scenarios = []string{"convoy", "falseshare", "zipf"}

var workloads = []workload{
	{
		name: "paper-grid",
		// The repository's own Figure 4/5 runs (DefaultScale) take 600
		// measured ops per core after 1500 of warmup, 3 seeds: over a
		// minute per seed on one worker. This pass keeps their 2.5:1
		// warmup ratio at a twelfth of the length: about 17 s for the two
		// seeds on a 2-vCPU Xeon VM. README.md compares the two mixes.
		sweep: func(seed int64) patch.Matrix {
			return patch.Matrix{
				Base:      patch.Config{Cores: 64, OpsPerCore: 50, WarmupOps: 125, SkipChecks: true, Seed: seed},
				Workloads: patch.Workloads(),
				Protocols: patch.FigureProtocols(),
				Seeds:     2,
			}
		},
		// The farm jobs are small figure-shaped service jobs, so most
		// of the window goes to the sweep passes: one per round.
		job:      paperJob,
		coldJobs: 100, cachedJobs: 200, cachedSeeds: 100,
		rounds: 3,
	},
	{
		name: "checked-faults",
		sweep: func(seed int64) patch.Matrix {
			return patch.Matrix{
				Base:      patch.Config{Cores: 16, OpsPerCore: 50, WarmupOps: 100, Seed: seed},
				Workloads: scenarios,
				Faults:    []*patch.FaultPlan{nil, faultPlan(seed)},
				Protocols: threeBackends(),
				Seeds:     2,
				// Faulted cells run unchecked: with any fault plan the
				// mid-run invariant audit, which checked faulted runs
				// turn on, fails on a few percent of these replicas
				// (see README.md, "Known defect").
				Adjust: func(c patch.Config) patch.Config {
					c.SkipChecks = c.FaultPlan != nil
					return c
				},
			}
		},
		// A farm job is the sweep's checked convoy cells at the sweep's
		// length. At 10 + 10 ops per core two thirds of a job was system
		// builds and garbage collection, and its latency swung about 1.5
		// times as far as the host's speed did.
		job: func(_, jobSeed int64) patch.Matrix {
			return patch.Matrix{
				Base:      patch.Config{Cores: 16, OpsPerCore: 50, WarmupOps: 100, Seed: jobSeed},
				Workloads: []string{"convoy"},
				Protocols: threeBackends(),
			}
		},
		coldJobs: 100, cachedJobs: 300, cachedSeeds: 50,
		rounds: 10,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jobSeeds returns, for a run seed, the seed of the set-up warm-up job,
// of the first cold job and the first seed of the cached jobs' matrix.
// Cold jobs take consecutive seeds from firstCold and the cached matrix
// from firstCached, so no cold job shares a replica with another job.
func jobSeeds(seed int64) (warmup, firstCold, firstCached int64) {
	base := seed * 100_000
	return base + 1, base + 1_000, base + 50_000
}
