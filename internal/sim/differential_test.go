package sim

import "testing"

// TestDifferentialMissCounts runs the same reference stream under all
// three protocols and checks that their demand-miss counts agree within
// a small tolerance: the protocols may shape *which* transfers occur
// (migratory hand-offs, token pooling) but they see the same program.
func TestDifferentialMissCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, wl := range []string{"micro", "oltp", "ocean"} {
		base := Config{Cores: 16, OpsPerCore: 400, WarmupOps: 1200, Workload: wl, Seed: 21}
		var misses [3]uint64
		for i, k := range []Kind{Directory, PATCH, TokenB} {
			cfg := base
			cfg.Protocol = k
			if k == PATCH {
				cfg.Variant = VariantNone
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", wl, k, err)
			}
			misses[i] = r.Misses
		}
		for i := 1; i < 3; i++ {
			ratio := float64(misses[i]) / float64(misses[0])
			if ratio < 0.93 || ratio > 1.07 {
				t.Errorf("%s: miss counts diverge: Directory=%d PATCH=%d TokenB=%d",
					wl, misses[0], misses[1], misses[2])
				break
			}
		}
	}
}

// TestManySeedsInvariants is a randomized protocol soak: many seeds,
// every protocol, full invariant checking (token conservation,
// single-writer, quiescence, liveness) on each run.
func TestManySeedsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(100); seed < 110; seed++ {
		for _, k := range []Kind{Directory, PATCH, TokenB} {
			cfg := Config{
				Protocol: k, Cores: 8, OpsPerCore: 120, WarmupOps: 120,
				Workload: "oltp", Seed: seed,
			}
			if k == PATCH {
				// Rotate variants across seeds for coverage.
				cfg.Variant = Variant(seed % 5)
			}
			if _, err := Run(cfg); err != nil {
				t.Fatalf("seed %d %v: %v", seed, k, err)
			}
		}
	}
}

// TestTinyCachesStress soaks the eviction/writeback race paths under
// every protocol by shrinking the measured working set pressure with
// a bandwidth-starved network.
func TestTinyCachesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range []Kind{Directory, PATCH, TokenB} {
		cfg := Config{
			Protocol: k, Cores: 8, OpsPerCore: 150, WarmupOps: 150,
			Workload: "micro", Seed: 33,
		}
		cfg.BandwidthBytesPerKiloCycle = 400
		if k == PATCH {
			cfg.Variant = VariantAll
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}
