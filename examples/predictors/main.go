// Destination-set prediction: a miniature of the paper's §8.3 study.
// Compares PATCH's prediction policies on oltp as one sweep over the
// variant axis: each policy trades direct-request traffic for
// sharing-miss latency. Owner prediction gets about half of PATCH-ALL's
// speedup for a fraction of its traffic; Broadcast-If-Shared approaches
// PATCH-ALL's runtime with less traffic.
//
//	go run ./examples/predictors
package main

import (
	"context"
	"fmt"
	"log"

	"patch"
)

func main() {
	var protos []patch.ProtoVariant
	for _, v := range patch.Variants() {
		protos = append(protos, patch.ProtoVariant{Protocol: patch.PATCH, Variant: v})
	}
	m := patch.Matrix{
		Base: patch.Config{
			Cores:      16,
			Workload:   "oltp",
			OpsPerCore: 600,
			WarmupOps:  1800,
			Seed:       1,
		},
		Protocols: protos,
	}

	res, err := patch.Sweep(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PATCH prediction policies on oltp (16 cores), normalized to PATCH-None.")
	fmt.Printf("%-26s %-10s %-12s %-14s %s\n",
		"variant", "runtime", "traffic", "direct B/miss", "sharing-miss latency")

	base := res.Cells[0].Summary.Results[0]
	for _, c := range res.Cells {
		r := c.Summary.Results[0]
		fmt.Printf("%-26s %-10.3f %-12.3f %-14.1f %.1f cycles\n",
			c.Label, float64(r.Cycles)/float64(base.Cycles), r.BytesPerMiss/base.BytesPerMiss,
			float64(r.TrafficByClass["Dir. Req."])/float64(r.Misses),
			r.AvgMissLatency)
	}
	fmt.Println("\nExpected shape (paper §8.3): Owner gets roughly half of All's")
	fmt.Println("speedup at a small traffic premium; Broadcast-If-Shared sits close")
	fmt.Println("to All's runtime with noticeably less traffic.")
}
