// Package litmus generates and executes small cross-core coherence
// litmus tests: short scripts of loads and stores racing over a handful
// of blocks, run under each protocol (DIRECTORY, PATCH variants,
// TokenB) on a sim.System with checks on, and checked against the
// coherence axioms that do not depend on timing:
//
//   - liveness: every operation completes;
//   - per-core coherence order, read-own-writes included: a core's
//     accesses to one block observe non-decreasing write versions
//     (sim's online order checker, run on every access);
//   - write serialisation: the final version of each block equals the
//     number of stores to it, identically across protocols, and no
//     access observes a version beyond that count;
//   - sim's end-of-run checks: every node quiesced, token conservation,
//     single-writer/many-readers, no tokens left in flight.
//
// The harness drives the system's nodes directly (no workload
// generator), so it can also be seeded from testing/quick for
// property-based protocol fuzzing.
package litmus

import (
	"fmt"
	"math/rand"
	"sort"

	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/fault"
	"patch/internal/msg"
	"patch/internal/sim"
)

// Op is one scripted access.
type Op struct {
	Core  int
	Block int // index into the script's block set
	Write bool
	Delay int // cycles after the previous op by the same core
}

// Script is an ordered per-system list of operations; per-core order is
// preserved, cross-core interleaving is up to protocol timing.
type Script []Op

// Random generates a script of n operations over the given core and
// block counts, biased toward contention (few blocks, mixed kinds).
func Random(r *rand.Rand, cores, blocks, n int) Script {
	s := make(Script, n)
	for i := range s {
		s[i] = Op{
			Core:  r.Intn(cores),
			Block: r.Intn(blocks),
			Write: r.Intn(3) == 0,
			Delay: r.Intn(30),
		}
	}
	return s
}

// GenConfig shapes Generate's randomized scripts. Zero values select
// contention-biased defaults (4 cores, 2 blocks, write fraction 1/3,
// delays up to 30 cycles).
type GenConfig struct {
	Cores  int // script cores are drawn from [0, Cores); 0 selects 4
	Blocks int // contended block-set size; 0 selects 2
	Ops    int // script length; 0 selects 24
	// WriteFrac is the store fraction in (0, 1]; 0 selects 1/3,
	// Random's contention-biased default.
	WriteFrac float64
	// MaxDelay bounds each op's issue delay after its predecessor on
	// the same core; 0 selects 30 cycles.
	MaxDelay int
}

// Generate builds a reproducible randomized script: the same seed and
// configuration always produce the same script, so a failing
// conformance-matrix entry can be replayed from its seed alone.
func Generate(seed int64, cfg GenConfig) Script {
	r := rand.New(rand.NewSource(seed))
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 2
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 24
	}
	writeFrac := cfg.WriteFrac
	if writeFrac <= 0 {
		writeFrac = 1.0 / 3
	}
	maxDelay := cfg.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 30
	}
	s := make(Script, cfg.Ops)
	for i := range s {
		s[i] = Op{
			Core:  r.Intn(cfg.Cores),
			Block: r.Intn(cfg.Blocks),
			Write: r.Float64() < writeFrac,
			Delay: r.Intn(maxDelay),
		}
	}
	return s
}

// Protocol selects the protocol variant to run a script under.
type Protocol int

// Protocol variants covered by the litmus harness.
const (
	Directory Protocol = iota
	PATCHNone
	PATCHAll
	PATCHAllNonAdaptive
	TokenB
	NumProtocols
)

func (p Protocol) String() string {
	switch p {
	case Directory:
		return "Directory"
	case PATCHNone:
		return "PATCH-None"
	case PATCHAll:
		return "PATCH-All"
	case PATCHAllNonAdaptive:
		return "PATCH-All-NA"
	case TokenB:
		return "TokenB"
	}
	return "Protocol(?)"
}

// Observation is the version a completed operation saw (for writes, the
// version it produced).
type Observation struct {
	Op      Op
	Version uint64
}

// Outcome is the result of one script execution.
type Outcome struct {
	Protocol      Protocol
	Observations  []Observation
	FinalVersions map[int]uint64 // per block index
	Cycles        event.Time
}

// blockAddr spreads script blocks across homes.
func blockAddr(i int) msg.Addr { return msg.Addr(0x100000 + i*64) }

// Harness executes scripts under one protocol on a reusable system: a
// sim.System with checks on, built once by sim.NewSystem and rewound by
// System.Reset between scripts, driving the same pooled/reused-System
// discipline the sweep scheduler's per-worker arenas rely on. A stale
// MSHR, waiter, pooled task or arena entry surviving a Reset surfaces
// as an axiom or invariant violation in a later script, which is
// exactly what the conformance matrix (run under -race in CI) is
// pinning.
type Harness struct {
	p   Protocol
	cfg sim.Config
	sys *sim.System

	lastPerformed []uint64 // version reported by the observer, per core
	obs           []func(msg.Addr, bool, uint64)
	used          bool
}

// variants holds each protocol variant's simulator configuration; the
// harness adds the core count and fault plan.
var variants = [NumProtocols]sim.Config{
	Directory:           {Protocol: sim.Directory},
	PATCHNone:           {Protocol: sim.PATCH, Variant: sim.VariantNone},
	PATCHAll:            {Protocol: sim.PATCH, Variant: sim.VariantAll},
	PATCHAllNonAdaptive: {Protocol: sim.PATCH, Variant: sim.VariantAllNonAdaptive},
	TokenB:              {Protocol: sim.TokenB},
}

// NewHarness assembles a reusable system of the given size for one
// protocol variant, on the paper's default interconnect. A non-nil
// plan injects its faults (jittered, degraded, bursting links), so the
// conformance matrix runs the same scripts under fault injection and
// pins that the axioms are timing-independent in fact, not just by
// design; a nil plan is fault-free.
func NewHarness(p Protocol, cores int, plan *fault.Plan) (*Harness, error) {
	if p < 0 || p >= NumProtocols {
		return nil, fmt.Errorf("litmus: unknown protocol %v", p)
	}
	cfg := variants[p]
	cfg.Cores, cfg.FaultPlan = cores, plan
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{p: p, cfg: cfg, sys: sys, lastPerformed: make([]uint64, cores)}
	// Chain each core's observation after sim's order checker, which
	// survives Resets, so the chained observer is built once.
	for i, n := range sys.Nodes {
		check := n.Shared().Observer
		h.obs = append(h.obs, func(addr msg.Addr, isWrite bool, version uint64) {
			check(addr, isWrite, version)
			h.lastPerformed[i] = version
		})
	}
	h.observe()
	return h, nil
}

// observe attaches the chained observers, which node Resets clear.
func (h *Harness) observe() {
	for i, n := range h.sys.Nodes {
		n.Shared().Observer = h.obs[i]
		h.lastPerformed[i] = 0
	}
}

// Run executes the script under one protocol on a fresh system and
// verifies the timing-independent coherence axioms. It returns the
// outcome for cross-protocol comparison.
func Run(p Protocol, script Script, cores int) (*Outcome, error) {
	h, err := NewHarness(p, cores, nil)
	if err != nil {
		return nil, err
	}
	return h.Run(script)
}

// Run executes one script on the harness, resetting the reused system
// first if a previous script ran on it. After the script's axioms it
// runs the system's own end-of-run checks (sim.System.CheckInvariants).
func (h *Harness) Run(script Script) (*Outcome, error) {
	if h.used {
		if err := h.sys.Reset(h.cfg); err != nil {
			return nil, err
		}
		h.observe()
	}
	h.used = true
	p, eng, nodes := h.p, h.sys.Eng, h.sys.Nodes
	lastPerformed := h.lastPerformed

	// Split the script into per-core queues preserving program order.
	queues := make([][]int, len(nodes)) // indices into script
	for i, op := range script {
		queues[op.Core] = append(queues[op.Core], i)
	}

	out := &Outcome{Protocol: p, FinalVersions: make(map[int]uint64)}
	obs := make([]Observation, len(script))
	completed := 0

	var issue func(coreID, qi int)
	issue = func(coreID, qi int) {
		if qi == len(queues[coreID]) {
			return
		}
		idx := queues[coreID][qi]
		op := script[idx]
		eng.After(event.Time(op.Delay), event.Func(func(event.Time) {
			nodes[coreID].Access(blockAddr(op.Block), op.Write, func() {
				obs[idx] = Observation{Op: op, Version: lastPerformed[coreID]}
				completed++
				issue(coreID, qi+1)
			})
		}))
	}
	for c := range nodes {
		issue(c, 0)
	}
	eng.Run(0)
	if completed != len(script) {
		return nil, fmt.Errorf("litmus: %v: %d/%d ops completed (deadlock)", p, completed, len(script))
	}
	out.Observations = obs
	out.Cycles = eng.Now()

	// Collect final versions (max over all copies).
	finals := make(map[msg.Addr]uint64)
	for _, n := range nodes {
		n.Shared().L2.ForEach(func(l *cache.Line) {
			if l.Version > finals[l.Addr] {
				finals[l.Addr] = l.Version
			}
		})
		n.Home().ForEach(func(e *directory.Entry) {
			if e.MemVersion > finals[e.Addr] {
				finals[e.Addr] = e.MemVersion
			}
		})
	}
	for b := 0; b < maxBlock(script)+1; b++ {
		out.FinalVersions[b] = finals[blockAddr(b)]
	}

	if err := verifyAxioms(p, script, out); err != nil {
		return nil, err
	}
	if err := h.sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("litmus: %v: %w", p, err)
	}
	return out, nil
}

func maxBlock(s Script) int {
	m := 0
	for _, op := range s {
		if op.Block > m {
			m = op.Block
		}
	}
	return m
}

// verifyAxioms checks the timing-independent coherence requirements
// that sim's own checks cannot: the final version of each block equals
// its store count, and no observation exceeds that count. Per-core
// coherence order is sim's online order checker's, run on every access.
func verifyAxioms(p Protocol, script Script, out *Outcome) error {
	writes := make(map[int]uint64)
	for _, op := range script {
		if op.Write {
			writes[op.Block]++
		}
	}
	// Final version equals the store count. Blocks are checked in
	// sorted order so the first reported violation is deterministic.
	blocks := make([]int, 0, len(writes))
	for b := range writes {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, b := range blocks {
		if got, want := out.FinalVersions[b], writes[b]; got != want {
			return fmt.Errorf("litmus: %v: block %d final version %d, %d stores", p, b, got, want)
		}
	}
	// No observation may exceed the block's store count: versions are
	// produced only by stores, so anything larger is a fabricated
	// write surfacing through the protocol.
	for i, op := range script {
		if v := out.Observations[i].Version; v > writes[op.Block] {
			return fmt.Errorf("litmus: %v: op %d observed version %d on block %d with only %d stores",
				p, i, v, op.Block, writes[op.Block])
		}
	}
	return nil
}

// Suite holds one reusable harness per protocol variant, so a sequence
// of scripts runs every protocol on reused (Reset) systems — the
// conformance matrix drives this to pin the reuse discipline, not just
// the protocols.
type Suite struct {
	cores   int
	harness [NumProtocols]*Harness
}

// NewSuite builds the per-protocol harnesses for systems of the given
// size, injecting the plan's faults on every one (nil: fault-free);
// the fault-conformance matrix runs every protocol on jittered,
// degraded, bursting links this way.
func NewSuite(cores int, plan *fault.Plan) (*Suite, error) {
	s := &Suite{cores: cores}
	for p := Protocol(0); p < NumProtocols; p++ {
		h, err := NewHarness(p, cores, plan)
		if err != nil {
			return nil, err
		}
		s.harness[p] = h
	}
	return s, nil
}

// Compare runs the script under every protocol of the suite (reusing
// each protocol's system) and checks that the outcomes agree where they
// must: same final version per block.
func (s *Suite) Compare(script Script) error {
	var outs []*Outcome
	for p := Protocol(0); p < NumProtocols; p++ {
		o, err := s.harness[p].Run(script)
		if err != nil {
			return err
		}
		outs = append(outs, o)
	}
	base := outs[0]
	blocks := make([]int, 0, len(base.FinalVersions))
	for b := range base.FinalVersions {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, o := range outs[1:] {
		for _, b := range blocks {
			if v := base.FinalVersions[b]; o.FinalVersions[b] != v {
				return fmt.Errorf("litmus: final versions diverge on block %d: %v=%d %v=%d",
					b, base.Protocol, v, o.Protocol, o.FinalVersions[b])
			}
		}
	}
	return nil
}

// Compare runs the script under every protocol on fresh systems and
// checks cross-protocol agreement. One-shot form of Suite.Compare.
func Compare(script Script, cores int) error {
	s, err := NewSuite(cores, nil)
	if err != nil {
		return err
	}
	return s.Compare(script)
}
