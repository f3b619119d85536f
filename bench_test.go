// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8) at a reduced-but-representative scale. Each benchmark
// reports the simulated runtime ("cycles") and traffic ("bytes/miss") as
// custom metrics, so `go test -bench=. -benchmem` produces the same rows
// and series the paper plots. cmd/experiments runs the full-scale
// sweeps; EXPERIMENTS.md records paper-vs-measured values.
package patch

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"patch/internal/sim"
)

// benchCores keeps benchmark iterations affordable while preserving the
// sharing behaviour (one consolidation domain).
const benchCores = 16

// runSim executes one simulation per iteration (varying the seed) and
// reports simulated cycles and bytes/miss. The configuration reaches
// sim through Config.ToSim, as every sweep replica's does.
func runSim(b *testing.B, cfg Config) {
	b.Helper()
	var cycles, bpm float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		c.SkipChecks = true
		r, err := sim.Run(c.ToSim())
		if err != nil {
			b.Fatal(err)
		}
		cycles += float64(r.Cycles)
		bpm += r.BytesPerMiss
	}
	b.ReportMetric(cycles/float64(b.N), "cycles")
	b.ReportMetric(bpm/float64(b.N), "bytes/miss")
}

func figureConfig(wl string) Config {
	return Config{
		Cores: benchCores, OpsPerCore: 300, WarmupOps: 900, Workload: wl,
	}
}

// withColumn sets cfg's protocol column.
func withColumn(cfg Config, pv ProtoVariant) Config {
	cfg.Protocol, cfg.Variant = pv.Protocol, pv.Variant
	return cfg
}

// patchAll is the PATCH-All column the ablation benchmarks vary.
var patchAll = ProtoVariant{Protocol: PATCH, Variant: VariantAll}

// inexactColumns are Figures 9-10's columns: Directory against
// PATCH-None, named by protocol.
var inexactColumns = []ProtoVariant{{Protocol: Directory}, {Protocol: PATCH, Variant: VariantNone}}

// BenchmarkFig4 regenerates Figure 4's runtime grid (and Figure 5's
// traffic, reported as bytes/miss) — every workload x configuration.
func BenchmarkFig4(b *testing.B) {
	for _, wl := range []string{"jbb", "oltp", "apache", "barnes", "ocean"} {
		for _, pv := range FigureProtocols() {
			b.Run(fmt.Sprintf("%s/%s", wl, pv.Name()), func(b *testing.B) {
				runSim(b, withColumn(figureConfig(wl), pv))
			})
		}
	}
}

// BenchmarkFig5Traffic isolates the traffic comparison of Figure 5 on
// the paper's most direct-request-sensitive workload.
func BenchmarkFig5Traffic(b *testing.B) {
	for _, pv := range []ProtoVariant{
		{Protocol: Directory},
		{Protocol: PATCH, Variant: VariantNone},
		patchAll,
		{Protocol: TokenB},
	} {
		b.Run(pv.Name(), func(b *testing.B) {
			runSim(b, withColumn(figureConfig("oltp"), pv))
		})
	}
}

func bandwidthCfg(wl string, bw int, pv ProtoVariant) Config {
	cfg := withColumn(figureConfig(wl), pv)
	cfg.BandwidthBytesPerKiloCycle = bw
	return cfg
}

// BenchmarkFig6 sweeps link bandwidth on ocean: Directory vs
// PATCH-All-NonAdaptive vs best-effort PATCH-All.
func BenchmarkFig6(b *testing.B) {
	for _, bw := range []int{300, 900, 2000, 8000} {
		for _, pv := range AdaptivityProtocols() {
			b.Run(fmt.Sprintf("bw%d/%s", bw, pv.Name()), func(b *testing.B) {
				runSim(b, bandwidthCfg("ocean", bw, pv))
			})
		}
	}
}

// BenchmarkFig7 is the same sweep on jbb.
func BenchmarkFig7(b *testing.B) {
	for _, bw := range []int{300, 900, 2000, 8000} {
		for _, pv := range AdaptivityProtocols() {
			b.Run(fmt.Sprintf("bw%d/%s", bw, pv.Name()), func(b *testing.B) {
				runSim(b, bandwidthCfg("jbb", bw, pv))
			})
		}
	}
}

// BenchmarkFig8 regenerates the scalability series: the microbenchmark
// on growing systems with 2-byte/cycle links.
func BenchmarkFig8(b *testing.B) {
	for _, cores := range []int{4, 16, 64, 128} {
		for _, pv := range AdaptivityProtocols() {
			b.Run(fmt.Sprintf("cores%d/%s", cores, pv.Name()), func(b *testing.B) {
				ops := 6400 / cores
				if ops < 50 {
					ops = 50
				}
				runSim(b, withColumn(Config{
					Cores: cores, OpsPerCore: ops, WarmupOps: ops, Workload: "micro",
					BandwidthBytesPerKiloCycle: 2000,
				}, pv))
			})
		}
	}
}

// BenchmarkFig9 regenerates the inexact-encoding runtime comparison
// (Figure 9) and, through the bytes/miss metric, Figure 10's traffic.
func BenchmarkFig9(b *testing.B) {
	for _, pv := range inexactColumns {
		for _, k := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%v/K%d", pv.Protocol, k), func(b *testing.B) {
				runSim(b, withColumn(Config{
					Cores: benchCores, OpsPerCore: 300, WarmupOps: 600,
					Workload: "micro", DirectoryCoarseness: k,
					BandwidthBytesPerKiloCycle: 2000,
				}, pv))
			})
		}
	}
}

// BenchmarkFig10Traffic is the unbounded-bandwidth companion of Fig9,
// isolating pure traffic effects.
func BenchmarkFig10Traffic(b *testing.B) {
	for _, pv := range inexactColumns {
		b.Run(fmt.Sprintf("%v/K16", pv.Protocol), func(b *testing.B) {
			runSim(b, withColumn(Config{
				Cores: benchCores, OpsPerCore: 300, WarmupOps: 600,
				Workload: "micro", DirectoryCoarseness: 16,
				UnboundedBandwidth: true,
			}, pv))
		})
	}
}

// BenchmarkAblationTenureTimeout sweeps the probationary-period factor
// (the paper fixes it at 2x the average round trip; DESIGN.md §5.2).
func BenchmarkAblationTenureTimeout(b *testing.B) {
	for _, factor := range []float64{0.5, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("factor%.1f", factor), func(b *testing.B) {
			cfg := withColumn(figureConfig("oltp"), patchAll)
			cfg.TenureTimeoutFactor = factor
			runSim(b, cfg)
		})
	}
}

// BenchmarkAblationDeactWindow measures the post-deactivation
// direct-request ignore window (§5.2's racing-request mitigation).
func BenchmarkAblationDeactWindow(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "window-on"
		if disabled {
			name = "window-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withColumn(figureConfig("oltp"), patchAll)
			cfg.NoDeactWindow = disabled
			runSim(b, cfg)
		})
	}
}

// BenchmarkAblationLinkModel compares the default contention model with
// unbounded links, bounding the cost of the link-walk approximation.
func BenchmarkAblationLinkModel(b *testing.B) {
	for _, unbounded := range []bool{false, true} {
		name := "contention"
		if unbounded {
			name = "unbounded"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withColumn(figureConfig("oltp"), patchAll)
			cfg.UnboundedBandwidth = unbounded
			runSim(b, cfg)
		})
	}
}

// BenchmarkEngine measures the raw discrete-event engine throughput that
// bounds overall simulator speed.
func BenchmarkEngine(b *testing.B) {
	runSim(b, withColumn(figureConfig("micro"), ProtoVariant{Protocol: Directory}))
}

// BenchmarkSweep measures the parallel sweep engine end to end: one
// Figure 4-shaped grid (the full protocol column set on oltp, two seeds
// per cell) per iteration, at several worker-pool sizes. The workers1
// case is the sequential baseline, so the sub-benchmark ratio is the
// engine's parallel speedup.
//
// To record the perf trajectory, emit machine-readable numbers per PR:
//
//	go test -bench 'Sweep' -run '^$' -count 5 | tee BENCH_sweep.txt
//	go test -bench 'Sweep' -run '^$' -json > BENCH_sweep.json
func BenchmarkSweep(b *testing.B) {
	m := Matrix{
		Base: Config{
			Cores: benchCores, OpsPerCore: 200, WarmupOps: 400,
			Workload: "oltp", Seed: 1, SkipChecks: true,
		},
		Protocols: FigureProtocols(),
		Seeds:     2,
	}
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(context.Background(), m, Workers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicaSharding isolates the scheduler case BenchmarkSweep's
// many-cell grid cannot: a single cell whose only parallelism is its
// seed replicas. Under cell-granular scheduling the workers1/workers4
// ratio was 1x by construction; under replica sharding it approaches
// min(4, GOMAXPROCS).
func BenchmarkReplicaSharding(b *testing.B) {
	m := Matrix{
		Base: Config{
			Protocol: PATCH, Variant: VariantAll,
			Cores: benchCores, OpsPerCore: 150, WarmupOps: 300,
			Workload: "oltp", Seed: 1, SkipChecks: true,
		},
		Seeds: 8,
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sweep(context.Background(), m, Workers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
