// Inexact directory encodings: a miniature of the paper's Figures 9-10.
// Coarsens the sharer bit vector (1 bit per K cores) and compares
// DIRECTORY with PATCH on the microbenchmark. DIRECTORY's traffic fills
// up with unnecessary invalidation acknowledgements — every member of
// every marked group must ack — while PATCH elides them because only
// actual token holders respond (§7).
//
// The grid is one patch.Matrix: the coarseness axis crossed with the
// two protocols.
//
//	go run ./examples/inexact_directory
package main

import (
	"context"
	"fmt"
	"log"

	"patch"
)

func main() {
	const cores = 32
	m := patch.Matrix{
		Base: patch.Config{
			Cores:                      cores,
			Workload:                   "micro",
			OpsPerCore:                 300,
			WarmupOps:                  600,
			Seed:                       1,
			BandwidthBytesPerKiloCycle: 2000, // 2 B/cycle
		},
		Coarseness: []int{1, 4, 16, 32},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory, Label: "DIRECTORY"},
			{Protocol: patch.PATCH, Variant: patch.VariantNone, Label: "PATCH"},
		},
	}

	res, err := patch.Sweep(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Microbenchmark on %d cores, 2 B/cycle links; K = cores per presence bit.\n\n", cores)
	fmt.Printf("%-10s %-22s %-22s\n", "", "DIRECTORY", "PATCH")
	fmt.Printf("%-10s %-11s %-10s %-11s %-10s\n", "K", "runtime", "ack B/miss", "runtime", "ack B/miss")

	ackPerMiss := func(r *patch.Result) float64 {
		return float64(r.TrafficByClass["Ack"]) / float64(r.Misses)
	}
	var dirBase, patchBase float64
	for i, k := range m.Coarseness {
		d := res.Cells[2*i].Summary.Results[0]
		p := res.Cells[2*i+1].Summary.Results[0]
		if k == 1 {
			dirBase = float64(d.Cycles)
			patchBase = float64(p.Cycles)
		}
		fmt.Printf("%-10d %-11.3f %-10.1f %-11.3f %-10.1f\n",
			k, float64(d.Cycles)/dirBase, ackPerMiss(d),
			float64(p.Cycles)/patchBase, ackPerMiss(p))
	}
	fmt.Println("\nExpected shape: DIRECTORY's ack bytes grow sharply with K while")
	fmt.Println("PATCH's barely move — only token holders acknowledge, so PATCH")
	fmt.Println("out-scales DIRECTORY when the encoding is inexact (paper §8.5).")
}
