// Package experiments regenerates every figure of the paper's evaluation
// section (§8): runtime and traffic across protocols and workloads
// (Figures 4-5), bandwidth adaptivity sweeps (Figures 6-7), scalability
// from 4 to 512 cores (Figure 8), and inexact directory encodings
// (Figures 9-10). Each figure is a declarative patch.Matrix executed on
// the parallel sweep engine; each experiment returns formatted rows
// normalised the way the paper plots them, plus the underlying samples.
package experiments

import (
	"context"
	"fmt"
	"io"

	"patch"
	"patch/internal/msg"
	"patch/internal/stats"
)

// Scale controls how much simulated work each experiment does. Full
// paper-shaped sweeps use the default; benchmarks and smoke tests shrink
// it.
type Scale struct {
	Cores     int // Figure 4-7 system size (paper: 64)
	Ops       int // measured ops per core
	Warmup    int // warmup ops per core
	Seeds     int // perturbed runs per cell (confidence intervals)
	MaxCores  int // Figure 8 sweep limit (paper: 512)
	SkipCheck bool

	// Workers bounds the sweep worker pool; 0 selects GOMAXPROCS.
	// Scheduling is replica-granular, so a figure dominated by one
	// large cell (e.g. Figure 8's 512-core column) still fills the
	// pool with its seed replicas.
	Workers int
	// Progress, when set, is invoked after every completed replica
	// with sweep-wide and per-cell counts.
	Progress func(patch.Progress)
}

// DefaultScale is sized to finish the full suite in minutes on a laptop
// while preserving every qualitative shape.
func DefaultScale() Scale {
	return Scale{Cores: 64, Ops: 600, Warmup: 1500, Seeds: 3, MaxCores: 512}
}

// QuickScale is for smoke tests and benchmarks.
func QuickScale() Scale {
	return Scale{Cores: 16, Ops: 250, Warmup: 500, Seeds: 1, MaxCores: 64, SkipCheck: true}
}

// sweep executes a matrix under the scale's execution knobs.
func (sc Scale) sweep(m patch.Matrix) (*patch.SweepResult, error) {
	return patch.Sweep(context.Background(), m,
		patch.Workers(sc.Workers), patch.OnProgress(sc.Progress))
}

// base is the shared cell template for the figure matrices.
func (sc Scale) base() patch.Config {
	return patch.Config{
		Cores: sc.Cores, OpsPerCore: sc.Ops, WarmupOps: sc.Warmup,
		Seed: 1, SkipChecks: sc.SkipCheck,
	}
}

// scaledOps keeps total simulated work bounded as the system grows
// (Figures 8-10 sweep the core count).
func (sc Scale) scaledOps(cfg patch.Config) patch.Config {
	ops := sc.Ops
	if scaled := (sc.Ops * sc.Cores) / cfg.Cores; scaled < ops {
		ops = scaled
	}
	if ops < 50 {
		ops = 50
	}
	cfg.OpsPerCore, cfg.WarmupOps = ops, ops
	return cfg
}

// Cell is one measured configuration.
type Cell struct {
	Label        string
	Runtime      stats.Summary
	BytesPerMiss stats.Summary
	ByClass      [msg.NumClasses]float64 // mean bytes/miss by class
	Dropped      float64
}

// toCell folds a sweep cell into the report shape the figures print.
func toCell(c patch.CellResult) Cell {
	cell := Cell{Label: c.Label, Runtime: c.Summary.Runtime, BytesPerMiss: c.Summary.BytesPerMiss}
	n := float64(len(c.Summary.Results))
	for _, r := range c.Summary.Results {
		for cls := msg.Class(0); cls < msg.NumClasses; cls++ {
			cell.ByClass[cls] += float64(r.TrafficByClass[cls.String()]) / float64(r.Misses) / n
		}
		cell.Dropped += float64(r.DroppedDirectRequests) / n
	}
	return cell
}

// Fig4And5 reproduces the paper's Figure 4 (normalised runtime) and
// Figure 5 (normalised traffic per miss with per-class breakdown) for
// every workload and protocol configuration.
func Fig4And5(w io.Writer, sc Scale) (map[string][]Cell, error) {
	m := patch.Matrix{
		Base:      sc.base(),
		Workloads: patch.Workloads(),
		Protocols: patch.FigureProtocols(),
		Seeds:     sc.Seeds,
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	cols := len(m.Protocols)
	out := make(map[string][]Cell)
	fmt.Fprintf(w, "== Figure 4 (normalized runtime) and Figure 5 (normalized traffic/miss), %d cores ==\n", sc.Cores)
	for i, wl := range m.Workloads {
		var cells []Cell
		for _, cr := range res.Cells[i*cols : (i+1)*cols] {
			cells = append(cells, toCell(cr))
		}
		out[wl] = cells
		dir := cells[0]
		fmt.Fprintf(w, "\n%s:\n  %-16s %-18s %-14s %s\n", wl, "config", "runtime (norm)", "traffic (norm)", "traffic by class (bytes/miss)")
		for _, c := range cells {
			fmt.Fprintf(w, "  %-16s %-6.3f ±%-9.3f %-14.3f Data=%.0f Ack=%.0f Dir=%.0f Ind=%.0f Fwd=%.0f Re=%.0f Act=%.0f\n",
				c.Label,
				stats.Ratio(c.Runtime.Mean, dir.Runtime.Mean),
				stats.Ratio(c.Runtime.CI95, dir.Runtime.Mean),
				stats.Ratio(c.BytesPerMiss.Mean, dir.BytesPerMiss.Mean),
				c.ByClass[msg.ClassData], c.ByClass[msg.ClassAck], c.ByClass[msg.ClassDirectReq],
				c.ByClass[msg.ClassIndirectReq], c.ByClass[msg.ClassForward],
				c.ByClass[msg.ClassReissue], c.ByClass[msg.ClassActivation])
		}
	}
	return out, nil
}

// BandwidthSweep reproduces Figures 6 and 7: runtime of Directory,
// PATCH-All-NonAdaptive and PATCH-All normalised to Directory at each
// link bandwidth (bytes per 1000 cycles).
func BandwidthSweep(w io.Writer, sc Scale, workload string) (map[int][3]float64, error) {
	m := patch.Matrix{
		Base:       sc.base(),
		Workloads:  []string{workload},
		Bandwidths: []int{300, 600, 900, 2000, 4000, 8000},
		Protocols:  patch.AdaptivityProtocols(),
		Seeds:      sc.Seeds,
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	out := make(map[int][3]float64)
	fmt.Fprintf(w, "== Figure 6/7 (bandwidth adaptivity, %s, %d cores) ==\n", workload, sc.Cores)
	fmt.Fprintf(w, "  %-10s %-11s %-14s %-10s %s\n", "bw(B/kc)", "Directory", "PATCH-All-NA", "PATCH-All", "(runtime normalized to Directory)")
	cols := len(m.Protocols)
	for i, bw := range m.Bandwidths {
		group := res.Cells[i*cols : (i+1)*cols]
		dir := group[0].Summary.Runtime.Mean
		row := [3]float64{
			1.0,
			stats.Ratio(group[1].Summary.Runtime.Mean, dir),
			stats.Ratio(group[2].Summary.Runtime.Mean, dir),
		}
		out[bw] = row
		fmt.Fprintf(w, "  %-10d %-11.3f %-14.3f %-10.3f\n", bw, row[0], row[1], row[2])
	}
	return out, nil
}

// Scalability reproduces Figure 8: microbenchmark runtime on 4..MaxCores
// cores with 2-byte/cycle links, normalised to Directory at each size.
func Scalability(w io.Writer, sc Scale) (map[int][3]float64, error) {
	var sizes []int
	for cores := 4; cores <= sc.MaxCores; cores *= 2 {
		sizes = append(sizes, cores)
	}
	base := sc.base()
	base.Workload = "micro"
	m := patch.Matrix{
		Base:       base,
		Cores:      sizes,
		Bandwidths: []int{2000}, // 2 bytes/cycle
		Protocols:  patch.AdaptivityProtocols(),
		Seeds:      sc.Seeds,
		Adjust:     sc.scaledOps,
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	out := make(map[int][3]float64)
	fmt.Fprintf(w, "== Figure 8 (scalability, microbenchmark, 2 B/cycle links) ==\n")
	fmt.Fprintf(w, "  %-7s %-11s %-14s %-10s %s\n", "cores", "Directory", "PATCH-All-NA", "PATCH-All", "(runtime normalized to Directory)")
	cols := len(m.Protocols)
	for i, cores := range sizes {
		group := res.Cells[i*cols : (i+1)*cols]
		dir := group[0].Summary.Runtime.Mean
		row := [3]float64{
			1.0,
			stats.Ratio(group[1].Summary.Runtime.Mean, dir),
			stats.Ratio(group[2].Summary.Runtime.Mean, dir),
		}
		out[cores] = row
		fmt.Fprintf(w, "  %-7d %-11.3f %-14.3f %-10.3f\n", cores, row[0], row[1], row[2])
	}
	return out, nil
}

// familyProtocols are the three protocol families, Directory,
// PATCH-All and TokenB: the columns of the scenario and fault figures.
var familyProtocols = []patch.ProtoVariant{
	{Protocol: patch.Directory},
	{Protocol: patch.PATCH, Variant: patch.VariantAll},
	{Protocol: patch.TokenB},
}

// ScenarioSweep is the scenario figure: every sharing-pattern scenario
// generator (pipeline, migratory, convoy, falseshare, zipf, phased)
// under the three protocol families — Directory, PATCH-All, TokenB —
// with runtime and traffic normalised to Directory per scenario. It
// asks the paper's Figure 4/5 question across the synthetic scenario
// axis: which sharing behaviours reward direct requests, and which
// punish broadcast.
func ScenarioSweep(w io.Writer, sc Scale) (map[string][]Cell, error) {
	m := patch.Matrix{
		Base:      sc.base(),
		Workloads: patch.ScenarioWorkloads(),
		Protocols: familyProtocols,
		Seeds:     sc.Seeds,
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	cols := len(m.Protocols)
	out := make(map[string][]Cell)
	fmt.Fprintf(w, "== Scenario figure (sharing-pattern generators, %d cores) ==\n", sc.Cores)
	for i, wl := range m.Workloads {
		var cells []Cell
		for _, cr := range res.Cells[i*cols : (i+1)*cols] {
			cells = append(cells, toCell(cr))
		}
		out[wl] = cells
		dir := cells[0]
		desc, _ := patch.DescribeWorkload(wl)
		fmt.Fprintf(w, "\n%s (%s):\n  %-12s %-18s %-14s %s\n",
			wl, desc, "config", "runtime (norm)", "traffic (norm)", "traffic by class (bytes/miss)")
		for _, c := range cells {
			fmt.Fprintf(w, "  %-12s %-6.3f ±%-9.3f %-14.3f Data=%.0f Ack=%.0f Dir=%.0f Ind=%.0f Fwd=%.0f Re=%.0f Act=%.0f\n",
				c.Label,
				stats.Ratio(c.Runtime.Mean, dir.Runtime.Mean),
				stats.Ratio(c.Runtime.CI95, dir.Runtime.Mean),
				stats.Ratio(c.BytesPerMiss.Mean, dir.BytesPerMiss.Mean),
				c.ByClass[msg.ClassData], c.ByClass[msg.ClassAck], c.ByClass[msg.ClassDirectReq],
				c.ByClass[msg.ClassIndirectReq], c.ByClass[msg.ClassForward],
				c.ByClass[msg.ClassReissue], c.ByClass[msg.ClassActivation])
		}
	}
	return out, nil
}

// InexactRow is one (cores, coarseness) measurement for Figures 9-10.
type InexactRow struct {
	Cores, Coarseness  int
	RuntimeBounded     float64 // normalised to full map, 2 B/cycle links
	RuntimeUnbounded   float64 // normalised to full map, unbounded links
	TrafficPerMiss     float64 // normalised to full map (bounded)
	AckShare, FwdShare float64 // fraction of traffic
}

// FaultSweep is the fault-injection figure: microbenchmark runtime
// under increasing per-hop delay jitter for Directory, PATCH-All and
// TokenB, each column normalised to that protocol's own fault-free
// runtime. It asks the robustness question the paper's evaluation
// leaves implicit: how gracefully does each protocol's timing degrade
// when the interconnect misbehaves — directory indirection amortises
// jitter over fewer messages, while broadcast-heavy TokenB crosses
// jittered links far more often.
func FaultSweep(w io.Writer, sc Scale) (map[int][3]float64, error) {
	jitters := []int{0, 2, 4, 8}
	faults := make([]*patch.FaultPlan, len(jitters))
	for i, j := range jitters {
		if j > 0 {
			faults[i] = &patch.FaultPlan{Seed: 1, HopJitter: j}
		}
	}
	base := sc.base()
	base.Workload = "micro"
	m := patch.Matrix{
		Base:      base,
		Faults:    faults,
		Protocols: familyProtocols,
		Seeds:     sc.Seeds,
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	cols := len(m.Protocols)
	baseline := res.Cells[0:cols] // jitter 0: each protocol's fault-free run
	out := make(map[int][3]float64)
	fmt.Fprintf(w, "== Fault injection (runtime vs hop jitter, microbenchmark, %d cores) ==\n", sc.Cores)
	fmt.Fprintf(w, "  %-8s %-11s %-11s %-8s %s\n", "jitter",
		familyProtocols[0].Name(), familyProtocols[1].Name(), familyProtocols[2].Name(),
		"(runtime normalized to own fault-free run)")
	for i, j := range jitters {
		group := res.Cells[i*cols : (i+1)*cols]
		var row [3]float64
		for c := 0; c < cols; c++ {
			row[c] = stats.Ratio(group[c].Summary.Runtime.Mean, baseline[c].Summary.Runtime.Mean)
		}
		out[j] = row
		fmt.Fprintf(w, "  %-8d %-11.3f %-11.3f %-8.3f\n", j, row[0], row[1], row[2])
	}
	return out, nil
}

// InexactEncodings reproduces Figures 9 and 10: runtime and traffic of
// DIRECTORY vs PATCH as the sharer encoding coarsens, at several system
// sizes, with bounded (2 B/cycle) and unbounded links.
func InexactEncodings(w io.Writer, sc Scale, sizes []int) (map[string][]InexactRow, error) {
	base := sc.base()
	base.Workload = "micro"
	m := patch.Matrix{
		Base:       base,
		Cores:      sizes,
		Bandwidths: []int{2000, patch.Unbounded},
		Coarseness: []int{1, 4, 16, 64, 256},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory, Label: "Dir"},
			{Protocol: patch.PATCH, Variant: patch.VariantNone, Label: "Patch"},
		},
		Seeds:  sc.Seeds,
		Adjust: sc.scaledOps,
		Filter: func(c patch.Config) bool { return c.DirectoryCoarseness <= c.Cores },
	}
	res, err := sc.sweep(m)
	if err != nil {
		return nil, err
	}
	// Index cells by their axis coordinates so the figure can regroup
	// them (rows are coarseness; columns pair bounded with unbounded).
	type coord struct {
		cores, bw, k int
		label        string
	}
	cells := make(map[coord]Cell, len(res.Cells))
	for _, cr := range res.Cells {
		bw := cr.Config.BandwidthBytesPerKiloCycle
		if cr.Config.UnboundedBandwidth {
			bw = patch.Unbounded
		}
		cells[coord{cr.Config.Cores, bw, cr.Config.DirectoryCoarseness, cr.Label}] = toCell(cr)
	}

	out := make(map[string][]InexactRow)
	fmt.Fprintf(w, "== Figure 9 (runtime) and Figure 10 (traffic/miss) vs encoding coarseness ==\n")
	for _, cores := range sizes {
		for _, label := range []string{"Dir", "Patch"} {
			key := fmt.Sprintf("%s-%dp", label, cores)
			fmt.Fprintf(w, "\n%s:\n  %-7s %-16s %-16s %-15s %s\n",
				key, "K", "runtime(2B/cyc)", "runtime(unbnd)", "traffic(norm)", "ack share")
			var baseBounded, baseUnbounded, baseTraffic float64
			for _, k := range m.Coarseness {
				if k > cores {
					continue
				}
				bounded := cells[coord{cores, 2000, k, label}]
				unbounded := cells[coord{cores, patch.Unbounded, k, label}]
				if k == 1 {
					baseBounded = bounded.Runtime.Mean
					baseUnbounded = unbounded.Runtime.Mean
					baseTraffic = bounded.BytesPerMiss.Mean
				}
				total := bounded.BytesPerMiss.Mean
				row := InexactRow{
					Cores: cores, Coarseness: k,
					RuntimeBounded:   stats.Ratio(bounded.Runtime.Mean, baseBounded),
					RuntimeUnbounded: stats.Ratio(unbounded.Runtime.Mean, baseUnbounded),
					TrafficPerMiss:   stats.Ratio(total, baseTraffic),
					AckShare:         stats.Ratio(bounded.ByClass[msg.ClassAck], total),
					FwdShare:         stats.Ratio(bounded.ByClass[msg.ClassForward], total),
				}
				out[key] = append(out[key], row)
				fmt.Fprintf(w, "  %-7d %-16.3f %-16.3f %-15.3f %.2f\n",
					k, row.RuntimeBounded, row.RuntimeUnbounded, row.TrafficPerMiss, row.AckShare)
			}
		}
	}
	return out, nil
}
