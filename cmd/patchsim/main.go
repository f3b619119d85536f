// Command patchsim runs a single simulation of one protocol
// configuration and prints its statistics: runtime, miss profile, and
// the paper-style traffic breakdown. It also records a workload's
// reference stream to a binary trace (-record) and replays one in
// place of a named workload (-replay); cmd/tracecvt inspects a trace.
//
// Examples:
//
//	patchsim -protocol patch -variant all -workload oltp -cores 64
//	patchsim -protocol directory -workload micro -cores 128 -coarseness 16
//	patchsim -protocol tokenb -workload barnes -seeds 5 -workers 4
//	patchsim -workload oltp -cores 16 -ops 200 -record oltp.bin
//	patchsim -workload oltp -cores 16 -ops 200 -replay oltp.bin
//
// A replay's header names the trace file in place of the workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"patch"
	"patch/internal/msg"
	"patch/internal/sim"
	"patch/internal/trace"
	"patch/internal/workload"
)

func main() {
	protoFlag := flag.String("protocol", "patch", "protocol: directory, patch, tokenb")
	variantFlag := flag.String("variant", "all", "PATCH variant: none, owner, bcast, all, all-na")
	workload := flag.String("workload", "oltp", "workload: jbb, oltp, apache, barnes, ocean, micro, pipeline, migratory, convoy, falseshare, zipf, phased")
	cores := flag.Int("cores", 64, "number of cores")
	ops := flag.Int("ops", 600, "measured operations per core")
	warmup := flag.Int("warmup", 0, "warmup operations per core (0: same as ops)")
	seed := flag.Int64("seed", 1, "random seed")
	seeds := flag.Int("seeds", 1, "number of perturbed runs")
	workers := flag.Int("workers", 0, "worker pool for -seeds batches (0: GOMAXPROCS)")
	bandwidth := flag.Int("bandwidth", 0, "link bandwidth in bytes/1000 cycles (0: 16 B/cycle)")
	unbounded := flag.Bool("unbounded", false, "disable link bandwidth modelling")
	coarseness := flag.Int("coarseness", 1, "sharer-encoding coarseness K (1 = full map)")
	traceBlock := flag.Uint64("trace", 0, "dump the message trace for one block address (hex ok with 0x)")
	record := flag.String("record", "", "record the reference trace (warmup plus measured ops) to a binary trace file instead of simulating")
	replay := flag.String("replay", "", "replay a recorded reference trace instead of a named workload")
	flag.Parse()
	// patch.Config reads an OpsPerCore of 0 as the simulator's default,
	// which the header and -record would not know.
	if *ops < 1 {
		fmt.Fprintln(os.Stderr, "-ops must be at least 1")
		os.Exit(2)
	}

	cfg := patch.Config{
		Workload:                   *workload,
		TraceFile:                  *replay,
		Cores:                      *cores,
		OpsPerCore:                 *ops,
		WarmupOps:                  *warmup,
		Seed:                       *seed,
		BandwidthBytesPerKiloCycle: *bandwidth,
		UnboundedBandwidth:         *unbounded,
		DirectoryCoarseness:        *coarseness,
	}
	switch *protoFlag {
	case "directory":
		cfg.Protocol = patch.Directory
	case "patch":
		cfg.Protocol = patch.PATCH
	case "tokenb":
		cfg.Protocol = patch.TokenB
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protoFlag)
		os.Exit(2)
	}
	switch *variantFlag {
	case "none":
		cfg.Variant = patch.VariantNone
	case "owner":
		cfg.Variant = patch.VariantOwner
	case "bcast":
		cfg.Variant = patch.VariantBroadcastIfShared
	case "all":
		cfg.Variant = patch.VariantAll
	case "all-na":
		cfg.Variant = patch.VariantAllNonAdaptive
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variantFlag)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *record != "" {
		n, err := recordTrace(*record, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d ops/core of %s for %d cores to %s\n", n, cfg.Workload, cfg.Cores, *record)
		return
	}

	name := cfg.Protocol.String()
	if cfg.Protocol == patch.PATCH {
		name = cfg.Variant.String()
	}
	source := cfg.Workload
	if *replay != "" {
		source = *replay
	}
	fmt.Printf("%s on %s, %d cores, %d ops/core\n", name, source, cfg.Cores, *ops)

	if *traceBlock != 0 {
		runTraced(cfg, msg.Addr(*traceBlock))
		return
	}

	if *seeds > 1 {
		// The seed batch is one replica-sharded sweep cell, so the
		// perturbed runs spread across the worker pool.
		res, err := patch.Sweep(context.Background(), patch.Matrix{Base: cfg, Seeds: *seeds}, patch.Workers(*workers))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := res.Cells[0].Summary
		fmt.Printf("runtime:      %s cycles\n", s.Runtime)
		fmt.Printf("bytes/miss:   %s\n", s.BytesPerMiss)
		return
	}

	r, err := patch.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("runtime:        %d cycles\n", r.Cycles)
	fmt.Printf("misses:         %d (sharing %d, memory %d)\n", r.Misses, r.SharingMisses, r.MemoryMisses)
	fmt.Printf("avg miss lat:   %.1f cycles\n", r.AvgMissLatency)
	fmt.Printf("bytes/miss:     %.1f\n", r.BytesPerMiss)
	if r.DroppedDirectRequests > 0 {
		fmt.Printf("dropped direct: %d\n", r.DroppedDirectRequests)
	}
	if r.TenureTimeouts > 0 {
		fmt.Printf("tenure t/o:     %d\n", r.TenureTimeouts)
	}
	if r.Reissues > 0 || r.PersistentRequests > 0 {
		fmt.Printf("reissues:       %d, persistent: %d\n", r.Reissues, r.PersistentRequests)
	}
	fmt.Println("traffic by class (bytes x links):")
	keys := make([]string, 0, len(r.TrafficByClass))
	for k := range r.TrafficByClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := r.TrafficByClass[k]; v > 0 {
			fmt.Printf("  %-12s %d\n", k, v)
		}
	}
}

// recordTrace writes the workload's reference stream to a binary trace
// file for later replay: exactly the ops per core a replay of cfg
// consumes, warmup plus measured, which it returns.
func recordTrace(path string, cfg patch.Config) (int, error) {
	g, err := workload.Named(cfg.Workload, cfg.Cores, cfg.Seed)
	if err != nil {
		return 0, err
	}
	warm := cfg.WarmupOps // 0: one warmup op per measured op; -1: none
	switch {
	case warm == 0:
		warm = cfg.OpsPerCore
	case warm < 0:
		warm = 0
	}
	n := warm + cfg.OpsPerCore
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = workload.RecordBinary(f, g, cfg.Cores, n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// runTraced executes the simulation with a per-block message tracer and
// prints the block's transaction history.
func runTraced(cfg patch.Config, block msg.Addr) {
	sc := cfg.ToSim()
	system, err := sim.NewSystem(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr := &trace.Tracer{Filter: trace.ForBlock(block), Keep: 2000}
	system.AttachTracer(tr)
	if _, err := system.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr.History(block, os.Stdout)
	if tr.Dropped() > 0 {
		fmt.Printf("(%d earlier records dropped from the retention window)\n", tr.Dropped())
	}
}
