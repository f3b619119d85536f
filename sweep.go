package patch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"patch/internal/sim"
	"patch/internal/stats"
)

// Unbounded, as a Matrix.Bandwidths value, selects contention-free
// links (the sweep-axis spelling of Config.UnboundedBandwidth).
const Unbounded = -1

// ErrEmptyMatrix reports a Matrix whose expansion produced no cells
// (for example, a Filter that rejected everything).
var ErrEmptyMatrix = errors.New("patch: matrix expands to no cells")

// MaxReplicas bounds one matrix expansion (cells x seeds). Matrices
// are wire input to the sweep service; without this bound a hostile
// Seeds value would make expansion allocate the whole work-list before
// any admission check could refuse it.
const MaxReplicas = 1 << 20

// ErrTooManyReplicas reports a Matrix whose cells x seeds product
// exceeds MaxReplicas.
var ErrTooManyReplicas = errors.New("patch: matrix expands to too many replicas")

// ProtoVariant names one protocol column of a sweep: a protocol plus,
// for PATCH, the prediction variant. Label overrides the display name
// (e.g. the paper's "PATCH-All-NA" for VariantAllNonAdaptive).
type ProtoVariant struct {
	Protocol Protocol `json:"protocol"`
	Variant  Variant  `json:"variant,omitempty"` // PATCH only
	Label    string   `json:"label,omitempty"`   // optional display override
}

// Name returns the display label: Label if set, the variant name for
// PATCH, the protocol name otherwise.
func (pv ProtoVariant) Name() string {
	if pv.Label != "" {
		return pv.Label
	}
	if pv.Protocol == PATCH {
		return pv.Variant.String()
	}
	return pv.Protocol.String()
}

// FigureProtocols returns the paper's Figure 4/5 column set: Directory,
// the four PATCH variants, and TokenB.
func FigureProtocols() []ProtoVariant {
	return []ProtoVariant{
		{Protocol: Directory},
		{Protocol: PATCH, Variant: VariantNone},
		{Protocol: PATCH, Variant: VariantOwner},
		{Protocol: PATCH, Variant: VariantBroadcastIfShared, Label: "Bcast-If-Shared"},
		{Protocol: PATCH, Variant: VariantAll},
		{Protocol: TokenB},
	}
}

// AdaptivityProtocols returns the bandwidth-adaptivity column set of
// Figures 6-8: Directory, guaranteed-delivery PATCH-All, best-effort
// PATCH-All.
func AdaptivityProtocols() []ProtoVariant {
	return []ProtoVariant{
		{Protocol: Directory},
		{Protocol: PATCH, Variant: VariantAllNonAdaptive, Label: "PATCH-All-NA"},
		{Protocol: PATCH, Variant: VariantAll},
	}
}

// Matrix declares a sweep: a base configuration plus axes whose
// cross-product defines the cells, mirroring how the paper's evaluation
// (§8) is a grid of configurations x workloads x seeds. An empty axis
// keeps the base configuration's value. Expansion order is fixed and
// documented — Workloads (outermost), then Cores, Bandwidths,
// Coarseness, Faults, and Protocols (innermost) — so results are stable
// and independent of how many workers run the sweep.
type Matrix struct {
	// Base is the cell template; axis values override its fields.
	Base Config `json:"base"`

	Protocols  []ProtoVariant `json:"protocols,omitempty"`
	Workloads  []string       `json:"workloads,omitempty"`
	Bandwidths []int          `json:"bandwidths,omitempty"` // bytes/kilocycle; 0 = paper default, Unbounded = no contention
	Coarseness []int          `json:"coarseness,omitempty"`
	Cores      []int          `json:"cores,omitempty"`
	// Faults sweeps fault-injection plans as a first-class axis (a nil
	// entry is the fault-free column).
	Faults []*FaultPlan `json:"faults,omitempty"`

	// Seeds is the number of perturbed runs per cell (Base.Seed,
	// Base.Seed+1, ...); 0 means 1.
	Seeds int `json:"seeds,omitempty"`

	// Adjust, when set, rewrites each expanded cell configuration —
	// e.g. scaling OpsPerCore down as Cores grows, as the paper's
	// scalability sweep does. It must be deterministic. Function fields
	// cannot cross a process boundary; a Matrix meant for the wire
	// names a registered transform via AdjustName instead.
	Adjust func(Config) Config `json:"-"`

	// Filter, when set, drops cells it returns false for — e.g.
	// coarseness values exceeding the cell's core count. Like Adjust,
	// wire-encodable matrices use FilterName.
	Filter func(Config) bool `json:"-"`

	// AdjustName and FilterName select transforms registered with
	// RegisterAdjust/RegisterFilter by name — the wire-encodable
	// spelling of Adjust and Filter. Setting both spellings of the same
	// transform is an error (ErrTransformConflict).
	AdjustName string `json:"adjust,omitempty"`
	FilterName string `json:"filter,omitempty"`
}

// A cell is one expanded configuration plus its display label.
type cell struct {
	cfg   Config
	label string
}

// A replica is the sweep scheduler's unit of work: one seeded run of
// one cell, identified by its (cell index, seed offset) coordinates.
// Flattening cells x seeds into replicas is what lets a single large
// cell (say, one 512-core configuration x 10 seeds) spread across the
// whole worker pool instead of serialising its runs on one worker.
type replica struct {
	cell int // index into plan.cells
	seed int // 0-based seed offset within the cell
}

// A plan is a matrix expanded to its validated cells plus the
// flattened replica work-list the worker pool consumes.
type plan struct {
	cells    []cell
	replicas []replica
	seeds    int // replicas per cell (>= 1)
}

// config derives one replica's fully expanded configuration: its
// cell's, with the seed offset applied. Derived at claim time so the
// work-list stays two ints per replica however wide the seed axis is.
func (p *plan) config(r replica) Config {
	cfg := p.cells[r.cell].cfg
	cfg.Seed += int64(r.seed)
	return cfg
}

// expand produces the validated cross-product in deterministic order
// and flattens it into the replica work-list.
func (m Matrix) expand() (*plan, error) {
	adjust, filter, err := m.resolveTransforms()
	if err != nil {
		return nil, err
	}
	workloads := m.Workloads
	if len(workloads) == 0 {
		workloads = []string{m.Base.Workload}
	}
	coreCounts := m.Cores
	if len(coreCounts) == 0 {
		coreCounts = []int{m.Base.Cores}
	}
	bandwidths := m.Bandwidths
	if len(bandwidths) == 0 {
		bw := m.Base.BandwidthBytesPerKiloCycle
		if m.Base.UnboundedBandwidth {
			bw = Unbounded
		}
		bandwidths = []int{bw}
	}
	coarsenesses := m.Coarseness
	if len(coarsenesses) == 0 {
		coarsenesses = []int{m.Base.DirectoryCoarseness}
	}
	faults := m.Faults
	if len(faults) == 0 {
		faults = []*FaultPlan{m.Base.FaultPlan}
	}
	protocols := m.Protocols
	if len(protocols) == 0 {
		protocols = []ProtoVariant{{Protocol: m.Base.Protocol, Variant: m.Base.Variant}}
	}

	var cells []cell
	for _, wl := range workloads {
		for _, cores := range coreCounts {
			for _, bw := range bandwidths {
				for _, k := range coarsenesses {
					for _, fp := range faults {
						for _, pv := range protocols {
							cfg := m.Base
							cfg.Workload = wl
							cfg.Cores = cores
							cfg.DirectoryCoarseness = k
							cfg.FaultPlan = fp
							cfg.Protocol = pv.Protocol
							cfg.Variant = pv.Variant
							if bw == Unbounded {
								cfg.UnboundedBandwidth = true
								cfg.BandwidthBytesPerKiloCycle = 0
							} else {
								cfg.UnboundedBandwidth = false
								cfg.BandwidthBytesPerKiloCycle = bw
							}
							if adjust != nil {
								cfg = adjust(cfg)
							}
							if filter != nil && !filter(cfg) {
								continue
							}
							if err := cfg.Validate(); err != nil {
								// The wrapped error already carries the
								// "patch:" prefix.
								return nil, fmt.Errorf("cell %d (%s): %w", len(cells), pv.Name(), err)
							}
							cells = append(cells, cell{cfg: cfg, label: pv.Name()})
						}
					}
				}
			}
		}
	}

	seeds := m.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	// Overflow-safe spelling of len(cells)*seeds > MaxReplicas.
	if len(cells) > 0 && seeds > MaxReplicas/len(cells) {
		return nil, fmt.Errorf("%w: %d cells x %d seeds > %d",
			ErrTooManyReplicas, len(cells), seeds, MaxReplicas)
	}
	replicas := make([]replica, 0, len(cells)*seeds)
	for ci := range cells {
		for s := 0; s < seeds; s++ {
			replicas = append(replicas, replica{cell: ci, seed: s})
		}
	}
	return &plan{cells: cells, replicas: replicas, seeds: seeds}, nil
}

// NumCells returns how many cells the matrix expands to (0 on an
// invalid matrix).
func (m Matrix) NumCells() int {
	p, err := m.expand()
	if err != nil {
		return 0
	}
	return len(p.cells)
}

// NumReplicas returns how many simulations the matrix schedules —
// cells x seeds, the length of the replica work-list (0 on an invalid
// matrix).
func (m Matrix) NumReplicas() int {
	p, err := m.expand()
	if err != nil {
		return 0
	}
	return len(p.replicas)
}

// A ReplicaPlan is a Matrix expanded into its validated cells and
// flattened replica work-list, exported for code that keeps replica
// results itself (the sweep service journals them and renders jobs
// from them): the plan owns what each replica index means and how
// results reduce back into cells. Replica indices are stable — they
// enumerate the matrix expansion order, and Progress.Replica names
// them — so a position-indexed reduce over them reproduces Sweep's
// byte-identical output whatever order the replicas completed in.
type ReplicaPlan struct {
	p *plan
}

// Plan expands the matrix for external scheduling. It fails like Sweep
// does: on an invalid cell or an empty expansion.
func (m Matrix) Plan() (*ReplicaPlan, error) {
	p, err := m.expand()
	if err != nil {
		return nil, err
	}
	if len(p.cells) == 0 {
		return nil, ErrEmptyMatrix
	}
	return &ReplicaPlan{p: p}, nil
}

// NumCells returns the plan's cell count.
func (rp *ReplicaPlan) NumCells() int { return len(rp.p.cells) }

// NumReplicas returns the plan's replica count (cells x seeds).
func (rp *ReplicaPlan) NumReplicas() int { return len(rp.p.replicas) }

// SeedsPerCell returns how many seeded replicas each cell aggregates.
func (rp *ReplicaPlan) SeedsPerCell() int { return rp.p.seeds }

// CellLabel returns cell i's protocol column label (ProtoVariant.Name).
func (rp *ReplicaPlan) CellLabel(i int) string { return rp.p.cells[i].label }

// CellConfig returns cell i's fully expanded configuration (Seed is
// the cell's base seed).
func (rp *ReplicaPlan) CellConfig(i int) Config { return rp.p.cells[i].cfg }

// ReplicaCell returns the cell index replica i belongs to.
func (rp *ReplicaPlan) ReplicaCell(i int) int { return rp.p.replicas[i].cell }

// ReplicaSeed returns replica i's 0-based seed offset within its cell
// — its position in the cell's position-indexed reduce.
func (rp *ReplicaPlan) ReplicaSeed(i int) int { return rp.p.replicas[i].seed }

// ReplicaConfig returns replica i's fully expanded configuration, seed
// offset applied.
func (rp *ReplicaPlan) ReplicaConfig(i int) Config { return rp.p.config(rp.p.replicas[i]) }

// CellResult is one completed cell of a sweep.
type CellResult struct {
	// Index is the cell's position in the matrix expansion order.
	Index int `json:"index"`
	// Label names the protocol column (ProtoVariant.Name).
	Label string `json:"label"`
	// Config is the cell's fully expanded configuration (Seed is the
	// base seed; the Summary aggregates Seeds perturbed runs).
	Config Config `json:"config"`
	// Summary aggregates the cell's seeded runs.
	Summary *Summary `json:"summary"`
}

// SweepResult is a completed sweep: cells in matrix expansion order,
// bit-identical regardless of worker count.
type SweepResult struct {
	Cells []CellResult `json:"cells"`
	// Runs is the total number of simulations executed.
	Runs int `json:"runs"`
}

// Progress describes one completed replica of a running sweep.
type Progress struct {
	// Done of Total counts completed replicas sweep-wide.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cell is the matrix index of the completed replica's cell and
	// Cells the sweep's cell count; CellDone of CellTotal counts the
	// cell's completed replicas, so a consumer can render per-cell
	// progress even when one large cell dominates the sweep.
	Cell      int `json:"cell"`
	Cells     int `json:"cells"`
	CellDone  int `json:"cell_done"`
	CellTotal int `json:"cell_total"`
	// Label is the cell's protocol column label; Seed is the replica's
	// absolute seed.
	Label string `json:"label"`
	Seed  int64  `json:"seed"`
	// Replica is the completed replica's index in the work-list
	// (ReplicaPlan order) and Result its outcome, shared with the
	// sweep's own reduce and so read-only. Neither goes on the wire.
	Replica int     `json:"-"`
	Result  *Result `json:"-"`
}

// A Runner executes replica simulations on behalf of a scheduler. It
// is the seam between the work-list (which decides what replica runs
// next) and execution: Sweep's per-worker arena is the default
// implementation, and the sweep service wraps it in a runner that
// serves journaled and cached results before simulating. A Runner is
// driven by one goroutine at a time; Close releases whatever arenas it
// holds.
type Runner interface {
	// RunReplica executes one fully expanded replica configuration.
	RunReplica(cfg Config) (*Result, error)
	// Close releases the runner's resources (reusable simulation
	// arenas, open trace replays).
	Close()
}

// NewRunner returns the local reuse-aware Runner: consecutive
// compatible configurations (same protocol and core count) Reset and
// reuse one warm simulation arena instead of rebuilding the world per
// replica.
func NewRunner() Runner { return &sweepWorker{} }

// SweepOption tunes sweep execution.
type SweepOption func(*sweepOptions)

type sweepOptions struct {
	workers   int
	progress  func(Progress)
	emitters  []Emitter
	newRunner func() Runner
}

// Workers bounds the worker pool; n <= 0 (the default) selects
// runtime.GOMAXPROCS(0).
func Workers(n int) SweepOption { return func(o *sweepOptions) { o.workers = n } }

// OnProgress installs a callback invoked after every completed replica
// with sweep-wide and per-cell counts, the replica's index and its
// result. Calls are serialised; keep the callback fast.
func OnProgress(f func(Progress)) SweepOption {
	return func(o *sweepOptions) { o.progress = f }
}

// EmitTo streams completed cells, in matrix order, to an emitter. May
// be given several times; emitters run in registration order.
func EmitTo(e Emitter) SweepOption {
	return func(o *sweepOptions) { o.emitters = append(o.emitters, e) }
}

// WithRunnerFactory substitutes the runner each pool worker executes
// replicas on. The default is NewRunner, the in-process reuse-aware
// simulator; the sweep service and scheduler tests inject their own
// runners per Sweep call, so there is no process-global runner state
// to race on when several sweeps (or a multi-job server) run
// concurrently.
func WithRunnerFactory(f func() Runner) SweepOption {
	return func(o *sweepOptions) { o.newRunner = f }
}

// Sweep expands the matrix into a replica work-list — one entry per
// (cell, seed) — and runs it on a worker pool. Replicas, not cells, are
// the unit of scheduling, so a single large cell parallelises across
// the pool exactly like many small ones. Results aggregate
// deterministically: each replica is an independent simulation keyed by
// (cell index, seed index) and the per-cell reduce is position-indexed,
// so the same matrix produces bit-identical summaries at any worker
// count and any completion order. The context cancels the sweep
// between replicas (an individual simulation is not interruptible);
// the first replica error cancels the remaining work and is returned.
func Sweep(ctx context.Context, m Matrix, opts ...SweepOption) (*SweepResult, error) {
	var o sweepOptions
	for _, opt := range opts {
		opt(&o)
	}
	p, err := m.expand()
	if err != nil {
		return nil, err
	}
	if len(p.cells) == 0 {
		return nil, ErrEmptyMatrix
	}
	total := len(p.replicas)
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	// endAll finalises every emitter in emitters, keeping the first
	// error; even failing sweeps terminate streaming output cleanly.
	endAll := func(emitters []Emitter) error {
		var first error
		for _, e := range emitters {
			if err := e.End(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i, e := range o.emitters {
		if err := e.Begin(len(p.cells)); err != nil {
			_ = endAll(o.emitters[:i]) // close out the already-begun ones
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex
		firstErr  error
		done      int
		results   = make([][]*Result, len(p.cells))
		seedsDone = make([]int, len(p.cells))
		summaries = make([]*Summary, len(p.cells))
		nextEmit  int
	)
	for i := range results {
		results[i] = make([]*Result, p.seeds)
	}
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	// finish summarises newly completed cells and streams them, in
	// matrix order, to the emitters. Called with mu held. Once the
	// sweep has failed, nothing further is emitted (in-flight workers
	// still complete and re-enter here).
	finish := func() {
		for firstErr == nil && nextEmit < len(p.cells) && seedsDone[nextEmit] == p.seeds {
			i := nextEmit
			summaries[i] = Summarize(results[i])
			for _, e := range o.emitters {
				if err := e.Cell(CellResult{Index: i, Label: p.cells[i].label, Config: p.cells[i].cfg, Summary: summaries[i]}); err != nil {
					fail(err)
					return
				}
			}
			nextEmit++
		}
	}

	// The work-list is consumed through an atomic cursor: replicas are
	// independent, so claiming the next index is the entire scheduling
	// decision — no producer goroutine, no channel.
	newRunner := o.newRunner
	if newRunner == nil {
		newRunner = NewRunner
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := newRunner()
			defer runner.Close()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				rep := p.replicas[i]
				cfg := p.config(rep)
				r, err := runner.RunReplica(cfg)
				mu.Lock()
				if err != nil {
					fail(fmt.Errorf("patch: %s seed %d: %w", p.cells[rep.cell].label, cfg.Seed, err))
				} else {
					results[rep.cell][rep.seed] = r
					seedsDone[rep.cell]++
					done++
					if o.progress != nil {
						o.progress(Progress{
							Done: done, Total: total,
							Cell: rep.cell, Cells: len(p.cells),
							CellDone: seedsDone[rep.cell], CellTotal: p.seeds,
							Label: p.cells[rep.cell].label, Seed: cfg.Seed,
							Replica: i, Result: r,
						})
					}
					finish()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErr != nil || ctx.Err() != nil {
		// Emitter End errors are secondary to the sweep failure.
		_ = endAll(o.emitters)
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, ctx.Err()
	}
	out := &SweepResult{Cells: make([]CellResult, len(p.cells)), Runs: total}
	for i := range p.cells {
		out.Cells[i] = CellResult{Index: i, Label: p.cells[i].label, Config: p.cells[i].cfg, Summary: summaries[i]}
	}
	if err := endAll(o.emitters); err != nil {
		return nil, err
	}
	return out, nil
}

// sweepWorker is the local Runner: one worker's reusable simulation
// arena. Consecutive compatible replicas (same protocol and core
// count) Reset and reuse a single sim.System — its event slots,
// message pool, cache arrays and directory slabs — instead of
// rebuilding the world per replica; incompatible cells rebuild it.
// Replica results are independent of the worker's history (Reset is
// byte-identical to fresh construction, see internal/sim), so sweep
// output stays bit-identical at any worker count and any
// replica-to-worker assignment.
type sweepWorker struct {
	sys *sim.System
}

// RunReplica executes one replica on the worker, reusing its System
// when compatible.
func (w *sweepWorker) RunReplica(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := cfg.toSim()
	if w.sys != nil {
		switch err := w.sys.Reset(sc); {
		case err == nil:
			r, err := w.sys.Run()
			if err != nil {
				// A failed run leaves in-flight state Reset cannot
				// rewind; the System must not be reused.
				w.Close()
				return nil, err
			}
			return fromSim(r), nil
		case errors.Is(err, sim.ErrIncompatibleReset):
			w.Close()
		default:
			return nil, err
		}
	}
	sys, err := sim.NewSystem(sc)
	if err != nil {
		return nil, err
	}
	r, err := sys.Run()
	if err != nil {
		// The fresh-built System was never adopted into w.sys, so the
		// reuse branch's failure handling above cannot release it —
		// Close here or its trace replay (fd on the pread path, mapping
		// on the mmap path) leaks with the abandoned arena. Close is
		// idempotent, so this is safe even though a failed Run has
		// already released the replay on its own error path.
		sys.Close()
		return nil, err
	}
	w.sys = sys
	return fromSim(r), nil
}

// Close drops the worker's System (releasing any trace replay it
// still holds), forcing the next replica to build fresh.
func (w *sweepWorker) Close() {
	if w.sys != nil {
		w.sys.Close()
		w.sys = nil
	}
}

// Summarize folds one cell's seeded runs into a Summary, in seed
// order. Exported for code that keeps replica results itself (the
// sweep service): the reduce is position-indexed — runs[i] must hold
// the result of seed offset i — which is what keeps merged output
// byte-identical whatever order the replicas completed in.
func Summarize(runs []*Result) *Summary {
	s := &Summary{Results: runs}
	cycles := make([]float64, len(runs))
	bpm := make([]float64, len(runs))
	for i, r := range runs {
		cycles[i] = float64(r.Cycles)
		bpm[i] = r.BytesPerMiss
	}
	s.Runtime = stats.Summarize(cycles)
	s.BytesPerMiss = stats.Summarize(bpm)
	return s
}
