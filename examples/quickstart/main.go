// Quickstart: run the paper's headline comparison — DIRECTORY vs
// PATCH-ALL vs TokenB on the oltp workload — as one declarative sweep
// and print runtime, miss profile and the traffic breakdown for each.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"patch"
)

func main() {
	// One consolidation domain; use 64 cores for the paper's full system.
	m := patch.Matrix{
		Base: patch.Config{
			Cores:      16,
			Workload:   "oltp",
			OpsPerCore: 600,
			WarmupOps:  1800,
			Seed:       1,
		},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory, Label: "DIRECTORY"},
			{Protocol: patch.PATCH, Variant: patch.VariantNone, Label: "PATCH-NONE"},
			{Protocol: patch.PATCH, Variant: patch.VariantAll, Label: "PATCH-ALL"},
			{Protocol: patch.TokenB, Label: "TOKENB"},
		},
	}

	res, err := patch.Sweep(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	baseline := res.Cells[0].Summary.Runtime.Mean
	for _, c := range res.Cells {
		r := c.Summary.Results[0]
		fmt.Printf("%-11s runtime %7d cycles (%.3fx) | %5d misses (%d sharing, %d memory) | %.0f bytes/miss\n",
			c.Label, r.Cycles, float64(r.Cycles)/baseline,
			r.Misses, r.SharingMisses, r.MemoryMisses, r.BytesPerMiss)
		if r.TenureTimeouts > 0 {
			fmt.Printf("            token-tenure timeouts: %d\n", r.TenureTimeouts)
		}
	}
	fmt.Println("\nExpected shape (paper §8.2-8.3): PATCH-NONE ~ DIRECTORY;")
	fmt.Println("PATCH-ALL clearly faster at substantially higher traffic; TokenB ~ PATCH-ALL.")
}
