// Package litmus generates and executes small cross-core coherence
// litmus tests: short scripts of loads and stores racing over a handful
// of blocks, run under each protocol (DIRECTORY, PATCH variants,
// TokenB) and checked against the coherence axioms that do not depend
// on timing:
//
//   - liveness: every operation completes;
//   - per-core coherence order: a core's accesses to one block observe
//     non-decreasing write versions;
//   - read-own-writes: a load observes at least the version the same
//     core last wrote;
//   - write serialisation: the final version of each block equals the
//     number of stores to it, identically across protocols.
//
// The harness drives protocol nodes directly (no workload generator), so
// it can also be seeded from testing/quick for property-based protocol
// fuzzing.
package litmus

import (
	"fmt"
	"math/rand"
	"sort"

	"patch/internal/cache"
	"patch/internal/core"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/protocol/directoryproto"
	"patch/internal/protocol/tokenb"
	"patch/internal/token"
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

// Harness executes scripts under one protocol on a reusable system:
// between scripts the engine, network and nodes are Reset rather than
// rebuilt, driving the same pooled/reused-System discipline the sweep
// scheduler's per-worker arenas rely on. A stale MSHR, waiter, pooled
// task or arena entry surviving a Reset surfaces as an axiom violation
// in a later script, which is exactly what the conformance matrix (run
// under -race in CI) is pinning.
type Harness struct {
	p      Protocol
	cores  int
	eng    *event.Engine
	net    *interconnect.Network
	env    *protocol.Env
	params protocol.Params
	nodes  []protocol.Node

	lastPerformed []uint64 // version reported by the observer, per core
	obs           []func(msg.Addr, bool, uint64)
	used          bool
	netCfg        interconnect.Config
}

// variantParams holds each variant's protocol settings; the harness
// adds its full-map sharer encoding.
var variantParams = [NumProtocols]protocol.Params{
	PATCHNone:           {Policy: predictor.None, BestEffort: true},
	PATCHAll:            {Policy: predictor.All, BestEffort: true},
	PATCHAllNonAdaptive: {Policy: predictor.All},
}

// NewHarness assembles a reusable system of the given size for one
// protocol variant, on the default fault-free interconnect.
func NewHarness(p Protocol, cores int) (*Harness, error) {
	return NewHarnessNet(p, cores, interconnect.DefaultConfig())
}

// NewHarnessNet is NewHarness with an explicit interconnect
// configuration, so the conformance matrix can run the same scripts
// under fault injection (jittered, degraded, bursting links) and pin
// that the axioms are timing-independent in fact, not just by design.
func NewHarnessNet(p Protocol, cores int, net interconnect.Config) (*Harness, error) {
	if p < 0 || p >= NumProtocols {
		return nil, fmt.Errorf("litmus: unknown protocol %v", p)
	}
	h := &Harness{
		p:             p,
		cores:         cores,
		eng:           &event.Engine{},
		nodes:         make([]protocol.Node, cores),
		lastPerformed: make([]uint64, cores),
		params:        variantParams[p],
		netCfg:        net,
	}
	h.params.Enc = directory.FullMap(cores)
	h.net = interconnect.New(h.eng, cores, h.netCfg)
	h.env = protocol.DefaultEnv(h.eng, h.net, cores)
	for i := 0; i < cores; i++ {
		id := msg.NodeID(i)
		switch p {
		case Directory:
			h.nodes[i] = directoryproto.New(id, h.env, h.params)
		case TokenB:
			h.nodes[i] = tokenb.New(id, h.env, h.params)
		default:
			h.nodes[i] = core.New(id, h.env, h.params)
		}
		i := i
		h.obs = append(h.obs, func(_ msg.Addr, _ bool, version uint64) { h.lastPerformed[i] = version })
		h.nodes[i].Shared().Observer = h.obs[i]
		h.net.Register(id, h.nodes[i].Handle)
	}
	return h, nil
}

// reset rewinds the reusable system between scripts, re-attaching the
// observers the node Resets cleared.
func (h *Harness) reset() {
	h.eng.Reset()
	h.net.Reset(h.netCfg)
	for i, n := range h.nodes {
		n.Reset(h.params)
		n.Shared().Observer = h.obs[i]
		h.lastPerformed[i] = 0
	}
}

// Run executes the script under one protocol on a fresh system and
// verifies the timing-independent coherence axioms. It returns the
// outcome for cross-protocol comparison.
func Run(p Protocol, script Script, cores int) (*Outcome, error) {
	h, err := NewHarness(p, cores)
	if err != nil {
		return nil, err
	}
	return h.Run(script)
}

// Run executes one script on the harness, resetting the reused system
// first if a previous script ran on it.
func (h *Harness) Run(script Script) (*Outcome, error) {
	if h.used {
		h.reset()
	}
	h.used = true
	p, cores := h.p, h.cores
	eng, nodes := h.eng, h.nodes
	lastPerformed := h.lastPerformed

	// Split the script into per-core queues preserving program order.
	queues := make([][]int, cores) // indices into script
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
		eng.After(event.Time(op.Delay), func(event.Time) {
			nodes[coreID].Access(blockAddr(op.Block), op.Write, func() {
				obs[idx] = Observation{Op: op, Version: lastPerformed[coreID]}
				completed++
				issue(coreID, qi+1)
			})
		})
	}
	for c := 0; c < cores; c++ {
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
	if err := verifyTokens(p, nodes, h.env); err != nil {
		return nil, err
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

// verifyAxioms checks the timing-independent coherence requirements.
func verifyAxioms(p Protocol, script Script, out *Outcome) error {
	// Per-core, per-block monotone versions and read-own-writes.
	type key struct{ core, block int }
	last := make(map[key]uint64)
	writes := make(map[int]uint64)
	perCoreIdx := make(map[int][]int)
	for i, op := range script {
		perCoreIdx[op.Core] = append(perCoreIdx[op.Core], i)
		if op.Write {
			writes[op.Block]++
		}
	}
	// Iterate cores in sorted order so which axiom violation is
	// reported first is deterministic run to run.
	cores := make([]int, 0, len(perCoreIdx))
	for c := range perCoreIdx {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		for _, i := range perCoreIdx[c] {
			op := script[i]
			v := out.Observations[i].Version
			k := key{op.Core, op.Block}
			if v < last[k] {
				return fmt.Errorf("litmus: %v: core %d observed version %d after %d on block %d",
					p, op.Core, v, last[k], op.Block)
			}
			last[k] = v
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

// verifyTokens runs the conservation check for token protocols.
func verifyTokens(p Protocol, nodes []protocol.Node, env *protocol.Env) error {
	if p == Directory {
		return nil
	}
	var holders []token.Holder
	for _, n := range nodes {
		holders = append(holders, n.Shared().L2, n.Home())
	}
	return token.CheckConservation(env.Tokens, holders, nil)
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
// size.
func NewSuite(cores int) (*Suite, error) {
	return NewSuiteNet(cores, interconnect.DefaultConfig())
}

// NewSuiteNet is NewSuite on an explicit interconnect configuration;
// the fault-conformance matrix uses it to run every protocol on
// jittered, degraded, bursting links.
func NewSuiteNet(cores int, net interconnect.Config) (*Suite, error) {
	s := &Suite{cores: cores}
	for p := Protocol(0); p < NumProtocols; p++ {
		h, err := NewHarnessNet(p, cores, net)
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
	s, err := NewSuite(cores)
	if err != nil {
		return err
	}
	return s.Compare(script)
}
