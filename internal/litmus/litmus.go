// Package litmus generates and executes small cross-core coherence
// litmus tests: short scripts of loads and stores racing over a handful
// of blocks, run under each protocol (DIRECTORY, PATCH variants,
// TokenB) on a sim.System with checks on. A script's accesses go
// through sim's issue path (System.Issue) and its run through sim's run
// loop (System.Drain), so sim checks the coherence axioms that do not
// depend on timing:
//
//   - liveness: the run loop's watchdog and, once the queue drains,
//     every operation completed;
//   - per-core coherence order, read-own-writes included: a core's
//     accesses to one block observe non-decreasing write versions
//     (sim's online order checker, run on every access);
//   - write serialisation: the final version of each block equals the
//     number of stores issued to it, 0 for a block never stored to, so
//     every protocol ends each script in the same state;
//   - sim's end-of-run checks and, under a fault plan, its mid-run
//     audit: every node quiesced, token conservation, single-writer/
//     many-readers, no tokens left in flight.
//
// Litmus adds one axiom of its own: no access observes a version beyond
// its block's store count.
//
// The harness issues scripted accesses, not a workload generator's, so
// it can also be seeded from testing/quick for property-based protocol
// fuzzing.
package litmus

import (
	"fmt"
	"math/rand"

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

// GenConfig shapes Generate's randomized scripts. Zero values select
// contention-biased defaults (4 cores, 2 blocks, write fraction 1/3,
// delays up to 30 cycles).
type GenConfig struct {
	Cores  int // script cores are drawn from [0, Cores); 0 selects 4
	Blocks int // contended block-set size; 0 selects 2
	Ops    int // script length; 0 selects 24
	// WriteFrac is the store fraction in (0, 1]; 0 selects a
	// contention-biased 1/3.
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
	Protocol     Protocol
	Observations []Observation
	// Cycles is the cycle the script's last operation completed.
	Cycles event.Time
}

// blockAddr spreads script blocks across homes.
func blockAddr(i int) msg.Addr { return msg.Addr(0x100000 + i*64) }

// Harness executes scripts under one protocol on a reusable system: a
// sim.System with checks on, built once by sim.NewSystem and rewound by
// System.Reset between scripts, driving the same pooled/reused-System
// discipline the sweep scheduler's per-worker arenas rely on. It issues
// each access through System.Issue and runs the script through
// System.Drain, so sim counts every store and watches the run; litmus
// itself checks only its observation axiom. A stale MSHR, waiter,
// pooled task or arena entry surviving a Reset surfaces as an axiom or
// invariant violation in a later script, which is exactly what the
// conformance matrix (run under -race in CI) is pinning.
type Harness struct {
	p   Protocol
	cfg sim.Config
	sys *sim.System

	lastPerformed []uint64 // version reported by the observer, per core
	obs           []func(msg.Addr, bool, uint64)
	used          bool
}

// maxCycles is the harness's liveness watchdog (sim.Config.MaxCycles).
// The longest script the tests run completes within 2,000 cycles, fault
// plans included, so a run still going at 1,000,000 is livelocked.
const maxCycles = 1_000_000

// variants holds each protocol variant's simulator configuration; the
// harness adds the core count, the fault plan and maxCycles.
var variants = [NumProtocols]sim.Config{
	Directory:           {Protocol: sim.Directory},
	PATCHNone:           {Protocol: sim.PATCH, Variant: sim.VariantNone},
	PATCHAll:            {Protocol: sim.PATCH, Variant: sim.VariantAll},
	PATCHAllNonAdaptive: {Protocol: sim.PATCH, Variant: sim.VariantAllNonAdaptive},
	TokenB:              {Protocol: sim.TokenB},
}

// NewHarness assembles a reusable system of the given size for one
// protocol variant, on the paper's default interconnect. A non-nil
// plan injects its faults (jittered, degraded, bursting links) and arms
// sim's mid-run audit, so the conformance matrix runs the same scripts
// under fault injection and pins that the axioms are timing-independent
// in fact, not just by design; a nil plan is fault-free.
func NewHarness(p Protocol, cores int, plan *fault.Plan) (*Harness, error) {
	if p < 0 || p >= NumProtocols {
		return nil, fmt.Errorf("litmus: unknown protocol %v", p)
	}
	cfg := variants[p]
	cfg.Cores, cfg.FaultPlan, cfg.MaxCycles = cores, plan, maxCycles
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

// Run executes one script on the harness, resetting the reused system
// first if a previous script ran on it: each core issues its operations
// in script order, each after its delay, through System.Issue, and
// System.Drain runs them. It then checks the observation axiom and runs
// the system's own end-of-run checks (sim.System.CheckInvariants).
func (h *Harness) Run(script Script) (*Outcome, error) {
	if h.used {
		if err := h.sys.Reset(h.cfg); err != nil {
			return nil, err
		}
		h.observe()
	}
	h.used = true
	p, sys := h.p, h.sys
	lastPerformed := h.lastPerformed

	// Split the script into per-core queues preserving program order.
	queues := make([][]int, len(sys.Nodes)) // indices into script
	for i, op := range script {
		queues[op.Core] = append(queues[op.Core], i)
	}

	out := &Outcome{Protocol: p}
	obs := make([]Observation, len(script))
	completed := 0

	var issue func(coreID, qi int)
	issue = func(coreID, qi int) {
		if qi == len(queues[coreID]) {
			return
		}
		idx := queues[coreID][qi]
		op := script[idx]
		sys.Eng.After(event.Time(op.Delay), event.Func(func(event.Time) {
			sys.Issue(coreID, blockAddr(op.Block), op.Write, func() {
				obs[idx] = Observation{Op: op, Version: lastPerformed[coreID]}
				if completed++; completed == len(script) {
					out.Cycles = sys.Eng.Now()
				}
				issue(coreID, qi+1)
			})
		}))
	}
	for c := range sys.Nodes {
		issue(c, 0)
	}
	if err := sys.Drain(); err != nil {
		return nil, fmt.Errorf("litmus: %v: %w", p, err)
	}
	if completed != len(script) {
		return nil, fmt.Errorf("litmus: %v: %d/%d ops completed (deadlock)", p, completed, len(script))
	}
	out.Observations = obs

	if err := verifyObservations(p, script, obs); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("litmus: %v: %w", p, err)
	}
	return out, nil
}

// verifyObservations checks the one timing-independent axiom sim cannot:
// no access observes a version beyond its block's store count. Versions
// are produced only by stores, so anything larger is a fabricated write
// surfacing through the protocol, even if a later store buried it.
func verifyObservations(p Protocol, script Script, obs []Observation) error {
	writes := make(map[int]uint64)
	for _, op := range script {
		if op.Write {
			writes[op.Block]++
		}
	}
	for i, op := range script {
		if v := obs[i].Version; v > writes[op.Block] {
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
	harness [NumProtocols]*Harness
}

// NewSuite builds the per-protocol harnesses for systems of the given
// size, injecting the plan's faults on every one (nil: fault-free);
// the fault-conformance matrix runs every protocol on jittered,
// degraded, bursting links this way.
func NewSuite(cores int, plan *fault.Plan) (*Suite, error) {
	s := &Suite{}
	for p := Protocol(0); p < NumProtocols; p++ {
		h, err := NewHarness(p, cores, plan)
		if err != nil {
			return nil, err
		}
		s.harness[p] = h
	}
	return s, nil
}

// Compare runs the script under every protocol of the suite, each on
// its reused system, and returns the first failure. The protocols agree
// on every block's final state without a comparison here: sim's write
// serialisation check pins each one's final version to the block's
// store count.
func (s *Suite) Compare(script Script) error {
	for _, h := range s.harness {
		if _, err := h.Run(script); err != nil {
			return err
		}
	}
	return nil
}
