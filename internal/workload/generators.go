// Sharing-pattern scenario generators: a family of seeded, named
// synthetic workloads that each stress the coherence protocols on one
// qualitative axis. The paper's §8 evaluation differentiates Directory,
// PATCH, and TokenB almost entirely on sharing behaviour — migratory
// locks in oltp, wide read sharing in apache, streaming in ocean — and
// this family isolates those behaviours (plus ones the application
// mixes blend away: false sharing, zipfian hotspots, phase changes) so
// every figure can be re-asked across a much wider scenario space.
//
// Every generator follows the same construction discipline as mix:
//
//   - parameterised by a params struct whose constructor validates it,
//     returning ErrBadParams instead of panicking;
//   - seeded with per-core rand.Rand streams, so each core's stream is
//     deterministic AND independent of the order cores are driven in
//     (the simulator interleaves cores; RecordBinary captures core by
//     core — both must see the same stream);
//   - sharing confined to consolidation domains like the paper's
//     four 16-core copies (DomainCores), with disjoint address regions
//     per domain so traces stay auditable.
package workload

import (
	"fmt"
	"math/rand"

	"patch/internal/msg"
)

// Additional disjoint region bases for the scenario family (workload.go
// claims 1<<36 .. 5<<36).
const (
	pipeBase   = 6 << 36
	migrBase   = 7 << 36
	convoyBase = 8 << 36
	falseBase  = 9 << 36
	zipfBase   = 10 << 36
)

// domainOf groups core into its consolidation domain of the given size
// (0 or negative means one system-wide domain over n cores).
func domainSize(domainCores, n int) int {
	if domainCores <= 0 || domainCores > n {
		return n
	}
	return domainCores
}

// think draws a geometric-ish think time with the given mean (0 mean:
// no think cycles), matching mix's distribution.
func think(r *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	return 1 + r.Intn(2*mean)
}

// ---------------------------------------------------------------------
// pipeline: multi-stage producer-consumer
// ---------------------------------------------------------------------

// pipelineParams shapes a multi-stage producer-consumer pipeline:
// cores are assigned stages round-robin within their domain; a stage-s
// core writes its own stage's buffer region and reads the upstream
// stage's, so data flows through S distinct hand-offs per domain (not
// just neighbour pairs). WorkFrac of references are private compute
// between communication steps.
type pipelineParams struct {
	Stages      int     // pipeline depth; >= 2
	Buffers     int     // blocks per stage buffer; >= 1
	WorkFrac    float64 // private-work fraction in [0, 1)
	PrivateBlks int     // private working set; >= 1 when WorkFrac > 0
	ThinkMean   int
	DomainCores int
}

// defaultPipeline is the table's "pipeline" configuration: a
// 4-stage pipeline with 16-block stage buffers inside 16-core domains.
func defaultPipeline() pipelineParams {
	return pipelineParams{Stages: 4, Buffers: 16, WorkFrac: 0.55, PrivateBlks: 1 << 10, ThinkMean: 5, DomainCores: 16}
}

func (p pipelineParams) describe() string {
	return fmt.Sprintf("%d-stage producer-consumer ring, %d-block buffers, %.0f%% private work",
		p.Stages, p.Buffers, 100*p.WorkFrac)
}

func (p pipelineParams) validate() error {
	if p.Stages < 2 {
		return fmt.Errorf("%w: pipeline needs >= 2 stages, got %d", ErrBadParams, p.Stages)
	}
	if p.Buffers < 1 {
		return fmt.Errorf("%w: pipeline needs >= 1 buffer block per stage, got %d", ErrBadParams, p.Buffers)
	}
	if p.WorkFrac < 0 || p.WorkFrac >= 1 {
		return fmt.Errorf("%w: WorkFrac = %g outside [0, 1)", ErrBadParams, p.WorkFrac)
	}
	if p.WorkFrac > 0 && p.PrivateBlks < 1 {
		return fmt.Errorf("%w: WorkFrac %g with PrivateBlks = %d", ErrBadParams, p.WorkFrac, p.PrivateBlks)
	}
	if p.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, p.ThinkMean)
	}
	return nil
}

type pipelineGen struct {
	p      pipelineParams
	dom    int
	rngs   []*rand.Rand
	toggle []bool // per-core: next communication op reads upstream vs writes own
}

// newPipeline builds the pipeline generator for n cores.
func newPipeline(p pipelineParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &pipelineGen{p: p, dom: domainSize(p.DomainCores, n)}
	g.rngs = make([]*rand.Rand, n)
	g.toggle = make([]bool, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*6151 + int64(i)*92821 + 3))
	}
	return g, nil
}

// stageBuf returns slot's block in the given (domain, stage) buffer.
func (g *pipelineGen) stageBuf(domain, stage, slot int) msg.Addr {
	base := uint64(pipeBase) + uint64(domain)*regionStride + uint64(stage)*0x40000
	return blockAddr(base, slot)
}

func (g *pipelineGen) Next(core int) Op {
	r := g.rngs[core]
	p := &g.p
	domain, inDomain := core/g.dom, core%g.dom
	if r.Float64() < p.WorkFrac {
		a := blockAddr(privateBase+uint64(core)*regionStride+0x800000, r.Intn(p.PrivateBlks))
		return Op{Addr: a, Write: r.Float64() < 0.3, Think: think(r, p.ThinkMean)}
	}
	stage := inDomain % p.Stages
	slot := r.Intn(p.Buffers)
	g.toggle[core] = !g.toggle[core]
	if g.toggle[core] {
		// Consume: read the upstream stage's buffer (a ring, so stage 0
		// reads the last stage's output and the pipeline has no ends).
		up := (stage + p.Stages - 1) % p.Stages
		return Op{Addr: g.stageBuf(domain, up, slot), Write: false, Think: think(r, p.ThinkMean)}
	}
	// Produce: write our own stage's buffer.
	return Op{Addr: g.stageBuf(domain, stage, slot), Write: true, Think: think(r, p.ThinkMean)}
}

// ---------------------------------------------------------------------
// migratory: migratory-object chains
// ---------------------------------------------------------------------

// migratoryParams shapes pure migratory-object chains: a set of objects
// per domain, each visited by every core in turn (each visit is a
// read-modify-write pair), so ownership of every block migrates
// core-to-core around the domain — the access pattern the migratory
// sharing optimisation and token tenure both target.
type migratoryParams struct {
	Objects     int     // migratory objects per domain; >= 1
	WorkFrac    float64 // private-work fraction in [0, 1)
	PrivateBlks int     // private working set; >= 1 when WorkFrac > 0
	ThinkMean   int
	DomainCores int
}

// defaultMigratory is the table's "migratory" configuration.
func defaultMigratory() migratoryParams {
	return migratoryParams{Objects: 64, WorkFrac: 0.5, PrivateBlks: 1 << 10, ThinkMean: 6, DomainCores: 16}
}

func (p migratoryParams) describe() string {
	return fmt.Sprintf("%d migratory objects per domain, RMW chains, %.0f%% private work", p.Objects, 100*p.WorkFrac)
}

func (p migratoryParams) validate() error {
	if p.Objects < 1 {
		return fmt.Errorf("%w: migratory needs >= 1 object, got %d", ErrBadParams, p.Objects)
	}
	if p.WorkFrac < 0 || p.WorkFrac >= 1 {
		return fmt.Errorf("%w: WorkFrac = %g outside [0, 1)", ErrBadParams, p.WorkFrac)
	}
	if p.WorkFrac > 0 && p.PrivateBlks < 1 {
		return fmt.Errorf("%w: WorkFrac %g with PrivateBlks = %d", ErrBadParams, p.WorkFrac, p.PrivateBlks)
	}
	if p.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, p.ThinkMean)
	}
	return nil
}

type migratoryGen struct {
	p       migratoryParams
	dom     int
	rngs    []*rand.Rand
	visit   []int      // per-core object-visit counter
	pending []msg.Addr // write half of the current RMW pair
}

// newMigratory builds the migratory-chain generator for n cores.
func newMigratory(p migratoryParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &migratoryGen{p: p, dom: domainSize(p.DomainCores, n)}
	g.rngs = make([]*rand.Rand, n)
	g.visit = make([]int, n)
	g.pending = make([]msg.Addr, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*24593 + int64(i)*49157 + 5))
	}
	return g, nil
}

func (g *migratoryGen) Next(core int) Op {
	r := g.rngs[core]
	p := &g.p
	if a := g.pending[core]; a != 0 {
		g.pending[core] = 0
		return Op{Addr: a, Write: true, Think: 1 + r.Intn(4)}
	}
	if r.Float64() < p.WorkFrac {
		a := blockAddr(privateBase+uint64(core)*regionStride+0xC00000, r.Intn(p.PrivateBlks))
		return Op{Addr: a, Write: r.Float64() < 0.3, Think: think(r, p.ThinkMean)}
	}
	// Walk the domain's object set starting from a per-core offset, so
	// every object is handed around the domain's cores in a chain.
	domain, inDomain := core/g.dom, core%g.dom
	obj := (inDomain + g.visit[core]) % p.Objects
	g.visit[core]++
	a := blockAddr(uint64(migrBase)+uint64(domain)*regionStride, obj)
	g.pending[core] = a // read now, write next: a read-modify-write pair
	return Op{Addr: a, Write: false, Think: think(r, p.ThinkMean)}
}

// ---------------------------------------------------------------------
// convoy: lock-handoff convoys
// ---------------------------------------------------------------------

// convoyParams shapes lock-handoff convoys: all cores of a domain
// contend for a handful of locks; a critical section is an RMW of the
// lock block (acquire), HoldOps accesses to the lock's protected data,
// and a final store to the lock block (release). With few locks the
// cores convoy behind each hand-off, the oltp pattern that most rewards
// direct owner prediction.
type convoyParams struct {
	Locks       int // locks per domain; >= 1
	DataBlocks  int // protected blocks per lock; >= 1
	HoldOps     int // accesses inside the critical section; >= 1
	ThinkMean   int
	DomainCores int
}

// defaultConvoy is the table's "convoy" configuration.
func defaultConvoy() convoyParams {
	return convoyParams{Locks: 4, DataBlocks: 8, HoldOps: 3, ThinkMean: 4, DomainCores: 16}
}

func (p convoyParams) describe() string {
	return fmt.Sprintf("%d locks per domain, %d-op critical sections over %d blocks", p.Locks, p.HoldOps, p.DataBlocks)
}

func (p convoyParams) validate() error {
	if p.Locks < 1 {
		return fmt.Errorf("%w: convoy needs >= 1 lock, got %d", ErrBadParams, p.Locks)
	}
	if p.DataBlocks < 1 {
		return fmt.Errorf("%w: convoy needs >= 1 data block, got %d", ErrBadParams, p.DataBlocks)
	}
	if p.HoldOps < 1 {
		return fmt.Errorf("%w: convoy needs >= 1 op per critical section, got %d", ErrBadParams, p.HoldOps)
	}
	if p.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, p.ThinkMean)
	}
	return nil
}

// convoy per-core phases: acquire-read -> acquire-write -> HoldOps data
// accesses -> release store, then pick the next lock.
type convoyGen struct {
	p     convoyParams
	dom   int
	rngs  []*rand.Rand
	lock  []int // per-core current lock
	phase []int // 0: acquire read; 1: acquire write; 2..HoldOps+1: data; HoldOps+2: release
}

// newConvoy builds the lock-convoy generator for n cores.
func newConvoy(p convoyParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &convoyGen{p: p, dom: domainSize(p.DomainCores, n)}
	g.rngs = make([]*rand.Rand, n)
	g.lock = make([]int, n)
	g.phase = make([]int, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*12289 + int64(i)*786433 + 7))
		g.lock[i] = i % p.Locks // stagger initial locks across cores
	}
	return g, nil
}

func (g *convoyGen) Next(core int) Op {
	r := g.rngs[core]
	p := &g.p
	domain := core / g.dom
	base := uint64(convoyBase) + uint64(domain)*regionStride
	lockAddr := blockAddr(base, g.lock[core])
	dataBase := base + 0x100000 + uint64(g.lock[core])*0x10000
	ph := g.phase[core]
	switch {
	case ph == 0: // acquire: read the lock word
		g.phase[core] = 1
		return Op{Addr: lockAddr, Write: false, Think: think(r, p.ThinkMean)}
	case ph == 1: // acquire: write it (test-and-set completing the RMW)
		g.phase[core] = 2
		return Op{Addr: lockAddr, Write: true, Think: 1 + r.Intn(3)}
	case ph < 2+p.HoldOps: // critical section over the lock's data
		g.phase[core] = ph + 1
		a := blockAddr(dataBase, r.Intn(p.DataBlocks))
		return Op{Addr: a, Write: r.Float64() < 0.5, Think: 1 + r.Intn(3)}
	default: // release, then move to another lock
		g.phase[core] = 0
		op := Op{Addr: lockAddr, Write: true, Think: think(r, p.ThinkMean)}
		g.lock[core] = r.Intn(p.Locks)
		return op
	}
}

// ---------------------------------------------------------------------
// falseshare: uncorrelated writers on a small hot block set
// ---------------------------------------------------------------------

// falseSharingParams shapes a false-sharing stressor: every core
// updates logically-private counters that happen to live co-located in
// a small set of hot blocks, so at coherence granularity uncorrelated
// writers hammer the same few blocks and ownership ping-pongs without
// any true communication.
type falseSharingParams struct {
	HotBlocks   int     // contended block set per domain; >= 1
	WriteFrac   float64 // store fraction on hot blocks, in [0, 1]
	HotFrac     float64 // fraction of references hitting the hot set, in (0, 1]
	PrivateBlks int     // private working set; >= 1 when HotFrac < 1
	ThinkMean   int
	DomainCores int
}

// defaultFalseSharing is the table's "falseshare" configuration.
func defaultFalseSharing() falseSharingParams {
	return falseSharingParams{HotBlocks: 8, WriteFrac: 0.7, HotFrac: 0.45, PrivateBlks: 1 << 10, ThinkMean: 5, DomainCores: 16}
}

func (p falseSharingParams) describe() string {
	return fmt.Sprintf("%d hot blocks per domain, %.0f%% writes, %.0f%% hot references",
		p.HotBlocks, 100*p.WriteFrac, 100*p.HotFrac)
}

func (p falseSharingParams) validate() error {
	if p.HotBlocks < 1 {
		return fmt.Errorf("%w: falseshare needs >= 1 hot block, got %d", ErrBadParams, p.HotBlocks)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("%w: WriteFrac = %g outside [0, 1]", ErrBadParams, p.WriteFrac)
	}
	if p.HotFrac <= 0 || p.HotFrac > 1 {
		return fmt.Errorf("%w: HotFrac = %g outside (0, 1]", ErrBadParams, p.HotFrac)
	}
	if p.HotFrac < 1 && p.PrivateBlks < 1 {
		return fmt.Errorf("%w: HotFrac %g with PrivateBlks = %d", ErrBadParams, p.HotFrac, p.PrivateBlks)
	}
	if p.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, p.ThinkMean)
	}
	return nil
}

type falseShareGen struct {
	p    falseSharingParams
	dom  int
	rngs []*rand.Rand
}

// newFalseSharing builds the false-sharing generator for n cores.
func newFalseSharing(p falseSharingParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &falseShareGen{p: p, dom: domainSize(p.DomainCores, n)}
	g.rngs = make([]*rand.Rand, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*40503 + int64(i)*69313 + 11))
	}
	return g, nil
}

func (g *falseShareGen) Next(core int) Op {
	r := g.rngs[core]
	p := &g.p
	domain := core / g.dom
	if r.Float64() < p.HotFrac {
		a := blockAddr(uint64(falseBase)+uint64(domain)*regionStride, r.Intn(p.HotBlocks))
		return Op{Addr: a, Write: r.Float64() < p.WriteFrac, Think: think(r, p.ThinkMean)}
	}
	a := blockAddr(privateBase+uint64(core)*regionStride+0xA00000, r.Intn(p.PrivateBlks))
	return Op{Addr: a, Write: r.Float64() < 0.3, Think: think(r, p.ThinkMean)}
}

// ---------------------------------------------------------------------
// zipf: zipfian hotspots
// ---------------------------------------------------------------------

// zipfParams shapes a zipfian-hotspot workload: references over a large
// shared table with a power-law popularity skew, so a handful of blocks
// absorb most of the traffic while the long tail provides capacity
// pressure — the web-cache/key-value shape absent from the paper's
// application mixes.
type zipfParams struct {
	Blocks      int     // table size in blocks; >= 2
	Skew        float64 // zipf s parameter; > 1
	WriteFrac   float64 // store fraction, in [0, 1]
	ThinkMean   int
	DomainCores int
}

// defaultZipf is the table's "zipf" configuration.
func defaultZipf() zipfParams {
	return zipfParams{Blocks: 4096, Skew: 1.2, WriteFrac: 0.2, ThinkMean: 5, DomainCores: 16}
}

func (p zipfParams) describe() string {
	return fmt.Sprintf("zipf(s=%.1f) over %d shared blocks, %.0f%% writes", p.Skew, p.Blocks, 100*p.WriteFrac)
}

func (p zipfParams) validate() error {
	if p.Blocks < 2 {
		return fmt.Errorf("%w: zipf needs >= 2 blocks, got %d", ErrBadParams, p.Blocks)
	}
	if p.Skew <= 1 {
		return fmt.Errorf("%w: zipf skew = %g must exceed 1", ErrBadParams, p.Skew)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("%w: WriteFrac = %g outside [0, 1]", ErrBadParams, p.WriteFrac)
	}
	if p.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, p.ThinkMean)
	}
	return nil
}

type zipfGen struct {
	p     zipfParams
	dom   int
	rngs  []*rand.Rand
	zipfs []*rand.Zipf
}

// newZipf builds the zipfian-hotspot generator for n cores.
func newZipf(p zipfParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &zipfGen{p: p, dom: domainSize(p.DomainCores, n)}
	g.rngs = make([]*rand.Rand, n)
	g.zipfs = make([]*rand.Zipf, n)
	for i := range g.rngs {
		r := rand.New(rand.NewSource(seed*65537 + int64(i)*22621 + 13))
		g.rngs[i] = r
		g.zipfs[i] = rand.NewZipf(r, p.Skew, 1, uint64(p.Blocks-1))
	}
	return g, nil
}

func (g *zipfGen) Next(core int) Op {
	r := g.rngs[core]
	p := &g.p
	domain := core / g.dom
	a := blockAddr(uint64(zipfBase)+uint64(domain)*regionStride, int(g.zipfs[core].Uint64()))
	return Op{Addr: a, Write: r.Float64() < p.WriteFrac, Think: think(r, p.ThinkMean)}
}

// ---------------------------------------------------------------------
// phased: phase-changing footprints
// ---------------------------------------------------------------------

// phasedParams shapes a phase-changing workload: each core rotates
// through a cycle of sharing mixes — read-shared, streaming, migratory
// — switching every PhaseOps operations, so predictors and directories
// trained on one phase are wrong for the next. Rotation is per-core
// (driven by the core's own op count), keeping streams independent of
// drive order.
type phasedParams struct {
	PhaseOps    int // ops per core between mix rotations; >= 1
	DomainCores int
}

// defaultPhased is the table's "phased" configuration.
func defaultPhased() phasedParams {
	return phasedParams{PhaseOps: 200, DomainCores: 16}
}

func (p phasedParams) describe() string {
	return fmt.Sprintf("rotates read-shared / streaming / migratory mixes every %d ops", p.PhaseOps)
}

func (p phasedParams) validate() error {
	if p.PhaseOps < 1 {
		return fmt.Errorf("%w: phased needs >= 1 op per phase, got %d", ErrBadParams, p.PhaseOps)
	}
	return nil
}

// phasedPhases are the rotation's sub-mixes. Each is a valid mix on its
// own (pinned by construction in newPhased).
func phasedPhases() []mix {
	return []mix{
		// Read-shared phase: wide read sharing, few writes.
		{
			SharedReadFrac: 0.6, SharedWriteFrac: 0.04,
			SharedBlocks: 1 << 10, PrivateBlocks: 1 << 10, PrivateWriteFrac: 0.25, ThinkMean: 6,
		},
		// Streaming phase: capacity misses dominate.
		{
			StreamFrac:    0.5,
			PrivateBlocks: 1 << 10, PrivateWriteFrac: 0.35, ThinkMean: 4,
		},
		// Migratory phase: lock-style read-modify-write chains.
		{
			MigratoryFrac: 0.4, MigratoryBlocks: 256,
			PrivateBlocks: 1 << 10, PrivateWriteFrac: 0.25, ThinkMean: 6,
		},
	}
}

type phasedGen struct {
	p      phasedParams
	phases []Generator // one mixGen per phase, all per-core independent
	count  []int       // per-core op counter driving the rotation
}

// newPhased builds the phase-changing generator for n cores.
func newPhased(p phasedParams, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &phasedGen{p: p, count: make([]int, n)}
	dom := domainSize(p.DomainCores, n)
	for i, m := range phasedPhases() {
		m.DomainCores = dom
		sub, err := newMix(m, n, seed*3+int64(i)+17)
		if err != nil {
			return nil, err
		}
		g.phases = append(g.phases, sub)
	}
	return g, nil
}

func (g *phasedGen) Next(core int) Op {
	phase := (g.count[core] / g.p.PhaseOps) % len(g.phases)
	g.count[core]++
	return g.phases[phase].Next(core)
}
