package patch_test

import (
	"context"
	"fmt"

	"patch"
)

// Example runs the smallest useful simulation: PATCH-ALL on the
// microbenchmark, reporting whether direct requests produced
// cache-to-cache transfers.
func Example() {
	res, err := patch.Run(patch.Config{
		Protocol:   patch.PATCH,
		Variant:    patch.VariantAll,
		Cores:      8,
		Workload:   "micro",
		OpsPerCore: 200,
		Seed:       1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("completed:", res.Misses > 0 && res.Cycles > 0)
	fmt.Println("sharing misses observed:", res.SharingMisses > 0)
	// Output:
	// completed: true
	// sharing misses observed: true
}

// ExampleSweep_seeds shows the paper's methodology: several perturbed
// runs of one configuration, summarised with a confidence interval. A
// Matrix with no axes is one cell; Seeds sets its run count.
func ExampleSweep_seeds() {
	res, err := patch.Sweep(context.Background(), patch.Matrix{
		Base: patch.Config{
			Protocol:   patch.Directory,
			Cores:      8,
			Workload:   "micro",
			OpsPerCore: 100,
			Seed:       1,
		},
		Seeds: 3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := res.Cells[0].Summary
	fmt.Println("runs:", s.Runtime.N)
	fmt.Println("mean runtime positive:", s.Runtime.Mean > 0)
	// Output:
	// runs: 3
	// mean runtime positive: true
}

// ExampleConfig_Validate checks a configuration before any simulator is
// built; invalid combinations surface as typed errors.
func ExampleConfig_Validate() {
	err := patch.Config{
		Protocol: patch.PATCH,
		Variant:  patch.VariantAll,
		Cores:    12, // not a power of two: outside the paper's design space
	}.Validate()
	fmt.Println("valid:", err == nil)
	fmt.Println(err)
	// Output:
	// valid: false
	// patch: core count must be a power of two in [1, 1024]: got 12
}

// ExampleSweep declares a protocol-comparison grid as a Matrix and runs
// it on the parallel sweep engine; cells come back in matrix order with
// deterministic summaries regardless of worker count.
func ExampleSweep() {
	m := patch.Matrix{
		Base: patch.Config{
			Cores:      8,
			Workload:   "micro",
			OpsPerCore: 100,
			Seed:       1,
		},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory},
			{Protocol: patch.PATCH, Variant: patch.VariantAll},
		},
		Seeds: 2,
	}
	res, err := patch.Sweep(context.Background(), m)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, c := range res.Cells {
		fmt.Printf("%s: %d runs, runtime positive: %v\n",
			c.Label, c.Summary.Runtime.N, c.Summary.Runtime.Mean > 0)
	}
	// Output:
	// Directory: 2 runs, runtime positive: true
	// PATCH-All: 2 runs, runtime positive: true
}

// ExampleConfig_variants enumerates the paper's PATCH configurations.
func ExampleConfig_variants() {
	for _, v := range patch.Variants() {
		fmt.Println(v)
	}
	// Output:
	// PATCH-None
	// PATCH-Owner
	// PATCH-BroadcastIfShared
	// PATCH-All
}
