// Command tracecvt prints the statistics of a recorded reference trace
// (patchsim -record): core count, ops per core, read/write mix, block
// footprint, mean think time and file size. It streams the trace once,
// so its memory stays O(cores x window) however large the file.
//
// Usage:
//
//	tracecvt trace.bin
//
// A file that is not a binary trace, such as a line-per-op text trace,
// fails at open with a bad-magic error; re-record it with patchsim
// -record.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"patch/internal/addrmap"
	"patch/internal/workload"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: tracecvt <trace>") }
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := printStats(os.Stdout, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printStats streams through the whole trace once and reports its
// shape: per-core lengths, read/write mix, block footprint, think time.
func printStats(w io.Writer, path string) error {
	replay, err := workload.OpenTrace(path, 0)
	if err != nil {
		return err
	}
	defer replay.Close()
	var blocks addrmap.Map[struct{}]
	var reads, writes, thinkSum uint64
	n := replay.Cores()
	minOps, maxOps, total := -1, 0, 0
	for c := 0; c < n; c++ {
		ops := replay.CoreLen(c)
		total += ops
		if minOps < 0 || ops < minOps {
			minOps = ops
		}
		if ops > maxOps {
			maxOps = ops
		}
		for i := 0; i < ops; i++ {
			op := replay.Next(c)
			if op.Write {
				writes++
			} else {
				reads++
			}
			thinkSum += uint64(op.Think)
			blocks.Ptr(op.Addr)
		}
		// Statistics over a poisoned stream would count repeats of the
		// last good op as real records.
		if err := replay.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cores:     %d\n", n)
	fmt.Fprintf(w, "ops/core:  min %d, max %d, total %d\n", minOps, maxOps, total)
	fmt.Fprintf(w, "mix:       %.1f%% reads, %.1f%% writes\n",
		100*float64(reads)/float64(total), 100*float64(writes)/float64(total))
	fmt.Fprintf(w, "footprint: %d blocks (%s)\n", blocks.Len(),
		humanBytes(uint64(blocks.Len())*workload.BlockSize))
	fmt.Fprintf(w, "think:     mean %.1f cycles\n", float64(thinkSum)/float64(total))
	fmt.Fprintf(w, "file:      %d bytes (%.1f B/op)\n", fi.Size(), float64(fi.Size())/float64(total))
	return nil
}

func humanBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
