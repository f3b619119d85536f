// Bandwidth adaptivity: a miniature of the paper's Figures 6-7. Sweeps
// link bandwidth and shows that best-effort PATCH-ALL tracks the better
// of DIRECTORY (scarce bandwidth) and broadcast (plentiful bandwidth),
// while the non-adaptive variant collapses once its direct requests
// congest the links — the "do no harm" guarantee of §6.
//
// The whole grid is one patch.Matrix: bandwidth axis x the adaptivity
// protocol columns, run in parallel by patch.Sweep.
//
//	go run ./examples/bandwidth_adaptivity
package main

import (
	"context"
	"fmt"
	"log"

	"patch"
)

func main() {
	m := patch.Matrix{
		Base: patch.Config{
			Cores:      16,
			Workload:   "jbb",
			OpsPerCore: 400,
			WarmupOps:  1200,
			Seed:       1,
		},
		Bandwidths: []int{300, 600, 900, 2000, 4000, 8000},
		Protocols:  patch.AdaptivityProtocols(),
	}

	res, err := patch.Sweep(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Runtime normalized to DIRECTORY at each link bandwidth (jbb, 16 cores).")
	fmt.Printf("%-12s %-11s %-15s %-10s\n", "bw (B/kcyc)", "Directory", "PATCH-All-NA", "PATCH-All")
	cols := len(m.Protocols)
	for i, bw := range m.Bandwidths {
		group := res.Cells[i*cols : (i+1)*cols]
		dir := group[0].Summary.Runtime.Mean
		fmt.Printf("%-12d %-11.3f %-15.3f %-10.3f\n", bw, 1.0,
			group[1].Summary.Runtime.Mean/dir, group[2].Summary.Runtime.Mean/dir)
	}
	fmt.Println("\nExpected shape: at low bandwidth PATCH-All-NA deteriorates past")
	fmt.Println("DIRECTORY while best-effort PATCH-All stays at or below 1.0; at high")
	fmt.Println("bandwidth both PATCH variants match and beat DIRECTORY.")
}
