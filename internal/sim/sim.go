// Package sim assembles and runs whole simulated systems: cores driving
// a workload, per-core coherence controllers for the selected protocol,
// the torus interconnect, and the end-of-run invariant checks (token
// conservation, single-writer/many-readers, liveness).
package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"patch/internal/addrmap"
	"patch/internal/cache"
	"patch/internal/core"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/fault"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/protocol/directoryproto"
	"patch/internal/protocol/tokenb"
	"patch/internal/token"
	"patch/internal/trace"
	"patch/internal/workload"
)

// Kind selects the coherence protocol.
type Kind int

const (
	// Directory is the paper's DIRECTORY baseline.
	Directory Kind = iota
	// PATCH is the paper's contribution; Config.Variant selects which
	// of its configurations runs.
	PATCH
	// TokenB is broadcast token coherence with persistent requests.
	TokenB
)

func (k Kind) String() string {
	switch k {
	case Directory:
		return "Directory"
	case PATCH:
		return "PATCH"
	case TokenB:
		return "TokenB"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the protocol by name ("Directory", "PATCH",
// "TokenB"): Kind is part of the sweep service's wire format, and a
// name survives enum renumbering where an integer would silently
// change meaning.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < Directory || k > TokenB {
		return nil, fmt.Errorf("sim: unknown protocol Kind(%d)", int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a protocol name (case-insensitive) or an
// integer.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for kind := Directory; kind <= TokenB; kind++ {
			if strings.EqualFold(s, kind.String()) {
				*k = kind
				return nil
			}
		}
		return fmt.Errorf("sim: unknown protocol %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("sim: unknown protocol %s", data)
	}
	kind := Kind(n)
	if kind < Directory || kind > TokenB {
		return fmt.Errorf("sim: unknown protocol Kind(%d)", n)
	}
	*k = kind
	return nil
}

// Variant names a PATCH configuration from the paper's evaluation
// (§6). It is predictor.Variant, which PATCH's node lowers to a
// prediction policy and a delivery class; Config carries it, and it
// marshals by paper name ("PATCH-All").
type Variant = predictor.Variant

// Variant values, in the paper's order.
const (
	VariantNone              = predictor.VariantNone
	VariantOwner             = predictor.VariantOwner
	VariantBroadcastIfShared = predictor.VariantBroadcastIfShared
	VariantAll               = predictor.VariantAll
	VariantAllNonAdaptive    = predictor.VariantAllNonAdaptive
)

// ErrUnknownVariant reports a Variant outside the paper's five PATCH
// configurations.
var ErrUnknownVariant = predictor.ErrUnknownVariant

// Config describes one simulation. It is the one run configuration:
// the patch facade's Config is this struct under its own name
// (patch.Config.ToSim is a plain conversion), so a sim.Config runs the
// same network, defaults and checks as the facade. Zero values select
// the paper's defaults (64 cores, 16 B/cycle links, full-map
// directory); withDefaults fills them in when a System is built or
// Reset.
//
// Config is a wire type: the sweep service sends it over HTTP, so its
// JSON field names are explicit and stable (a golden round-trip test
// pins them), and the field order is the JSON order. Protocol and
// Variant marshal by name ("PATCH", "PATCH-All"), not enum position.
type Config struct {
	Protocol Kind    `json:"protocol"`
	Variant  Variant `json:"variant,omitempty"` // PATCH only

	Cores int `json:"cores,omitempty"` // 0: 64
	// Workload names a built-in generator: one of the paper's
	// application mixes ("jbb", "oltp", "apache", "barnes", "ocean"),
	// the §8.1 microbenchmark ("micro", the default), or a
	// sharing-pattern scenario ("pipeline", "migratory", "convoy",
	// "falseshare", "zipf", "phased"); the facade's Workloads and
	// ScenarioWorkloads list the two families.
	// TraceFile, when set, replays a recorded reference trace instead.
	//
	// The trace is a binary trace (patchsim -record), streamed in
	// fixed-size per-core windows (mmap-backed on linux), so multi-GB
	// replays open at near-zero resident cost. The facade's Validate
	// only checks the file exists; header and content errors (a text
	// trace fails on its magic) surface when the run opens it.
	Workload   string `json:"workload,omitempty"`
	TraceFile  string `json:"trace_file,omitempty"`
	OpsPerCore int    `json:"ops_per_core,omitempty"` // 0: 1000
	// WarmupOps are per-core operations executed before measurement
	// begins: caches and predictors warm up, then all statistics reset
	// and the runtime clock starts (the paper measures warmed
	// workloads). 0 selects one warmup op per measured op; -1 none.
	WarmupOps int   `json:"warmup_ops,omitempty"`
	Seed      int64 `json:"seed,omitempty"`

	// BandwidthBytesPerKiloCycle sweeps link bandwidth (Figures 6-8);
	// 0 selects the paper's default 16 bytes/cycle. UnboundedBandwidth
	// disables link contention entirely (Figure 9's upper halves).
	BandwidthBytesPerKiloCycle int  `json:"bandwidth_bytes_per_kilocycle,omitempty"`
	UnboundedBandwidth         bool `json:"unbounded_bandwidth,omitempty"`

	// DirectoryCoarseness is K in the coarse sharer vector (1 bit per K
	// cores); 1 or 0 selects an exact full map (Figures 9-10).
	DirectoryCoarseness int `json:"directory_coarseness,omitempty"`

	// TenureTimeoutFactor scales the token-tenure probationary period
	// relative to the average round trip (PATCH ablation; 0 selects the
	// paper's 2x design point).
	TenureTimeoutFactor float64 `json:"tenure_timeout_factor,omitempty"`
	// NoDeactWindow disables the post-deactivation direct-request ignore
	// window (PATCH ablation, §5.2's racing-request mitigation).
	NoDeactWindow bool `json:"no_deact_window,omitempty"`
	// MaxCycles aborts a run that stops making progress (liveness
	// watchdog); 0 selects a generous default (2 billion cycles).
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// SkipChecks disables the end-of-run invariant verification
	// (benchmark loops only).
	SkipChecks bool `json:"skip_checks,omitempty"`

	// FaultPlan, when set, injects deterministic interconnect faults
	// (seeded delay jitter, degradation windows, congestion bursts) and
	// enables the mid-run invariant audit. A nil or no-op plan leaves
	// the simulation bit-identical to an unfaulted run.
	FaultPlan *fault.Plan `json:"fault_plan,omitempty"`

	// auditEvery, when non-zero and checks are enabled, runs the mid-run
	// invariant audit (token conservation, owner tokens included, over
	// tokens in flight and parked at nodes too; single-writer; home
	// queue-depth bounds) every auditEvery cycles. Fault-injected runs
	// default it to 10,000; this package's tests set it denser. It is
	// verification-only and, like SkipChecks, not part of a config's
	// identity.
	auditEvery uint64
}

// withDefaults fills unset fields. It is not idempotent (WarmupOps -1
// becomes 0, which a second pass would read as "one per measured op"),
// so NewSystem and Reset apply it exactly once and the facade's
// ToSim not at all.
func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 64
	}
	if c.OpsPerCore == 0 {
		c.OpsPerCore = 1000
	}
	if c.WarmupOps == 0 {
		c.WarmupOps = c.OpsPerCore
	}
	if c.WarmupOps < 0 {
		c.WarmupOps = 0
	}
	if c.Workload == "" {
		c.Workload = "micro"
	}
	if c.DirectoryCoarseness == 0 {
		c.DirectoryCoarseness = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	if c.auditEvery == 0 && !c.SkipChecks && c.FaultPlan.Enabled() {
		// Injected runs audit themselves: adversarial delay is what
		// shakes transient invariant violations loose, and 10k cycles
		// keeps the overhead marginal.
		c.auditEvery = 10_000
	}
	return c
}

// network derives the run's interconnect: the paper's §8.1 links
// (interconnect.DefaultConfig) at the configured bandwidth, or with
// contention off, carrying the fault plan's canonical form. It is the
// one place a configuration becomes an interconnect.Config; NewSystem
// builds the network from it and Reset rewinds the network to it.
func (c Config) network() interconnect.Config {
	n := interconnect.DefaultConfig()
	if c.UnboundedBandwidth {
		n.BytesPerKiloCycle, n.Unbounded = 0, true
	} else if c.BandwidthBytesPerKiloCycle > 0 {
		n.BytesPerKiloCycle = c.BandwidthBytesPerKiloCycle
	}
	n.Fault = c.FaultPlan.Canonical()
	return n
}

// params is the per-run protocol settings every node is built and
// Reset with. The backends read what they use of them; PATCH's node
// lowers the variant.
func (c Config) params() protocol.Params {
	return protocol.Params{
		Enc:                 directory.Encoding{Cores: c.Cores, Coarseness: c.DirectoryCoarseness},
		Variant:             c.Variant,
		TenureTimeoutFactor: c.TenureTimeoutFactor,
		NoDeactWindow:       c.NoDeactWindow,
	}
}

// Result carries everything the experiment harness reports.
type Result struct {
	Config Config

	// Cycles is the runtime: the cycle at which the last core finished
	// its operation stream.
	Cycles uint64

	Ops    uint64
	Misses uint64

	// Traffic, in bytes x links, by accounting class, plus totals.
	BytesByClass [msg.NumClasses]uint64
	LinkBytes    uint64
	Dropped      uint64

	// BytesPerMiss is total traffic divided by demand misses, the
	// paper's Figure 5/10 metric.
	BytesPerMiss float64

	AvgMissLatency float64
	Stats          protocol.Stats
}

// System is an assembled simulation, exposed so tests, examples and the
// litmus harness can reach inside (engine, nodes) while cmd/ and
// benchmarks just call Run.
type System struct {
	Cfg   Config
	Eng   *event.Engine
	Net   *interconnect.Network
	Env   *protocol.Env
	Nodes []protocol.Node
	Gen   workload.Generator

	warming      bool
	issuers      []issuer
	warmFinished int
	finished     int
	opsIssued    uint64
	startedAt    event.Time
	doneAt       event.Time

	// storeCounts tracks stores issued per block (warmup included) for
	// the end-of-run write-serialisation check: each store increments
	// the block's version exactly once, so the final maximum version of
	// a block must equal its store count. An open-addressed table keeps
	// this per-operation bump off the Go map hot path.
	storeCounts *addrmap.Map[uint64]

	// auditor, when checks are enabled on a token protocol, watches
	// token-carrying messages enter and leave the network so Rule #1 can
	// be verified continuously (duplicated owner tokens and lost
	// messages surface immediately).
	auditor *trace.Auditor

	// orderViolation records the first per-core coherence-order violation
	// seen by the online observer (a core reading an older write version
	// than one it already observed for the block). lastSeen and obsFns
	// are the per-core observer state, built once and arena-reused
	// (Cleared) across Resets like the rest of the checking state.
	orderViolation error
	lastSeen       []*addrmap.Map[uint64]
	obsFns         []func(addr msg.Addr, isWrite bool, version uint64)

	// auditT is the reusable mid-run invariant audit task (auditEvery),
	// armed by ready; auditErr records the first violation it found.
	auditT   *auditTask
	auditErr error
}

// Close releases any resources held by the generator (a trace replay
// keeps its file or mapping open for the whole run). Run calls it
// automatically; it is idempotent and only needed directly when an
// assembled System is discarded without running.
func (s *System) Close() error {
	if r, ok := s.Gen.(*workload.StreamReplay); ok {
		return r.Close()
	}
	return nil
}

// AttachTracer wires a message tracer into the network's delivery hook
// (composing with any existing hook). Call before Run.
func (s *System) AttachTracer(tr *trace.Tracer) {
	prev := s.Net.OnDeliver
	s.Net.OnDeliver = func(now event.Time, m *msg.Message) {
		if prev != nil {
			prev(now, m)
		}
		tr.Observe(now, m)
	}
}

// ErrIncompatibleReset reports a Reset whose configuration cannot reuse
// the assembled system (different protocol or core count); the caller
// should build a fresh System instead.
var ErrIncompatibleReset = errors.New("sim: incompatible configuration for System reset")

// Reset returns a completed System to its pre-run state under cfg, so
// the same arenas — event slots, message pool, cache arrays, directory
// slabs, MSHR and task free-lists — serve another run without
// rebuilding the world. The configuration may change anything except
// the protocol and core count (ErrIncompatibleReset otherwise; the
// caller then constructs a fresh System). A reset that fails opening
// the workload leaves the System untouched and still resettable.
//
// Reset must only be called on a freshly built System or one whose Run
// completed successfully: a failed run (deadlock, watchdog, invariant
// violation) leaves in-flight state nothing rewinds, so such a System
// must be discarded. A reset System's Run output is byte-identical to
// a freshly constructed System's, pinned by TestResetMatchesFresh
// against the golden configurations.
func (s *System) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Protocol != s.Cfg.Protocol || cfg.Cores != s.Cfg.Cores {
		return ErrIncompatibleReset
	}
	gen, err := open(cfg)
	if err != nil {
		return err
	}
	s.Eng.Reset()
	s.Net.Reset(cfg.network())
	s.Env.Holders.Clear()
	params := cfg.params()
	for _, n := range s.Nodes {
		n.Reset(params)
	}
	s.ready(cfg, gen)
	return nil
}

// NewSystem builds (but does not run) a system. It is the one place a
// protocol backend's nodes are constructed; everything else, the litmus
// harness included, drives them through protocol.Node.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Protocol < Directory || cfg.Protocol > TokenB {
		return nil, fmt.Errorf("sim: unknown protocol %v", cfg.Protocol)
	}
	gen, err := open(cfg)
	if err != nil {
		return nil, err
	}
	eng := &event.Engine{}
	net := interconnect.New(eng, cfg.Cores, cfg.network())
	env := protocol.DefaultEnv(eng, net, cfg.Cores)
	s := &System{Eng: eng, Net: net, Env: env, Nodes: make([]protocol.Node, cfg.Cores)}
	params := cfg.params()
	for i := range s.Nodes {
		id := msg.NodeID(i)
		switch cfg.Protocol {
		case Directory:
			s.Nodes[i] = directoryproto.New(id, env, params)
		case PATCH:
			s.Nodes[i] = core.New(id, env, params)
		case TokenB:
			s.Nodes[i] = tokenb.New(id, env, params)
		}
		net.Register(id, s.Nodes[i].Handle)
	}
	s.ready(cfg, gen)
	return s, nil
}

// open validates cfg's sharer encoding and opens its reference stream:
// the trace replay, sized against the run, or the named generator.
func open(cfg Config) (workload.Generator, error) {
	if err := cfg.params().Enc.Validate(); err != nil {
		return nil, err
	}
	if cfg.TraceFile == "" {
		return workload.Named(cfg.Workload, cfg.Cores, cfg.Seed)
	}
	replay, err := workload.OpenTrace(cfg.TraceFile, cfg.Cores)
	if err != nil {
		return nil, err
	}
	if total := replay.Len(); cfg.WarmupOps+cfg.OpsPerCore > total {
		replay.Close()
		return nil, fmt.Errorf("sim: trace has %d ops/core, need %d warmup + %d measured",
			total, cfg.WarmupOps, cfg.OpsPerCore)
	}
	return replay, nil
}

// ready readies an assembled system, built or just rewound, for a run
// under cfg: the run counters and reference stream, plus, with checks
// on, the store counts, the token auditor's network hooks on a system
// whose homes count tokens, the per-core order checkers and, given an
// audit period, the first mid-run audit. The checking state is itself
// arena-reused: a table or auditor that exists keeps its grown
// capacity.
func (s *System) ready(cfg Config, gen workload.Generator) {
	s.Close() // release a replay left by an unrun assembly
	s.Cfg = cfg
	s.Gen = gen
	s.warming = false
	s.warmFinished, s.finished = 0, 0
	s.opsIssued = 0
	s.startedAt, s.doneAt = 0, 0
	s.orderViolation = nil
	s.auditErr = nil
	if cfg.SkipChecks {
		s.storeCounts, s.auditor = nil, nil
		return
	}
	if s.storeCounts == nil {
		s.storeCounts = new(addrmap.Map[uint64])
	} else {
		s.storeCounts.Clear()
	}
	if t := s.tokens(); t > 0 {
		if s.auditor == nil {
			s.auditor = trace.NewAuditor(t)
		} else {
			s.auditor.Reset(t)
		}
		s.Net.OnSend = func(_ event.Time, m *msg.Message) { s.auditor.Sent(m) }
		s.Net.OnDeliver = func(_ event.Time, m *msg.Message) { s.auditor.Delivered(m) }
	}
	for i := range s.Nodes {
		s.attachOrderChecker(i)
	}
	if cfg.auditEvery > 0 {
		if s.auditT == nil {
			s.auditT = &auditTask{s: s}
		}
		s.Eng.After(event.Time(cfg.auditEvery), s.auditT)
	}
}

// tokens is the per-block token count T the system's homes were built
// with: what every block's holders must conserve (Rule #1), or 0 on a
// system that does not count tokens (DIRECTORY).
func (s *System) tokens() int { return s.Nodes[0].Home().Tokens }

// attachOrderChecker installs an online per-core coherence-order
// monitor: each core must observe non-decreasing write versions per
// block. The per-core version table and observer closure are built on
// first attach and reused (the table Cleared) on later Resets.
func (s *System) attachOrderChecker(i int) {
	if s.lastSeen == nil {
		s.lastSeen = make([]*addrmap.Map[uint64], s.Cfg.Cores)
		s.obsFns = make([]func(msg.Addr, bool, uint64), s.Cfg.Cores)
	}
	if s.lastSeen[i] == nil {
		lastSeen := new(addrmap.Map[uint64])
		s.lastSeen[i] = lastSeen
		s.obsFns[i] = func(addr msg.Addr, isWrite bool, version uint64) {
			// Versions only grow, so "never observed" (zero) cannot trip
			// the non-decreasing check.
			p := lastSeen.Ptr(addr)
			if version < *p && s.orderViolation == nil {
				s.orderViolation = fmt.Errorf(
					"sim: coherence order violated: core %d observed version %d after %d for %#x",
					i, version, *p, uint64(addr))
			}
			*p = version
		}
	} else {
		s.lastSeen[i].Clear()
	}
	s.Nodes[i].Shared().Observer = s.obsFns[i]
}

// issuer drives one core's operation loop. It doubles as the think-time
// event.Task and keeps a single completion callback, so steady-state op
// issue allocates nothing: pull the next op, sleep the think time, fire
// the access, advance on completion.
type issuer struct {
	s         *System
	c         int
	remaining int
	warm      bool
	addr      msg.Addr
	write     bool
	advance   func() // completion callback, built once per core
}

// start begins a phase (warmup or measured) for this core.
func (it *issuer) start(warm bool, remaining int) {
	it.warm = warm
	it.remaining = remaining
	it.pull()
}

// pull fetches the next operation and schedules it after its think time,
// or reports phase completion.
func (it *issuer) pull() {
	s := it.s
	if it.remaining == 0 {
		if it.warm {
			s.warmFinished++
			if s.warmFinished == s.Cfg.Cores {
				s.beginMeasurement()
			}
		} else {
			s.finished++
			if s.finished == s.Cfg.Cores {
				s.doneAt = s.Eng.Now()
			}
		}
		return
	}
	op := s.Gen.Next(it.c)
	it.addr, it.write = op.Addr, op.Write
	s.Eng.After(event.Time(op.Think), it)
}

// Fire implements event.Task: the think time elapsed, perform the op.
func (it *issuer) Fire(event.Time) {
	if !it.warm {
		it.s.opsIssued++
	}
	it.s.Issue(it.c, it.addr, it.write, it.advance)
}

// Issue performs one access of core c: it counts a store for the
// write-serialisation check, then hands the access to the core's node;
// done runs when the core may proceed. It is the one issue path: the
// workload's issuers and any other driver of an assembled system (the
// litmus harness) go through it, because a store that bypasses it
// leaves a version the end-of-run check reports as fabricated.
//
//patch:steadystate
func (s *System) Issue(c int, addr msg.Addr, isWrite bool, done func()) {
	if isWrite && s.storeCounts != nil {
		*s.storeCounts.Ptr(addr)++
	}
	s.Nodes[c].Access(addr, isWrite, done)
}

// start seeds each core's operation loop: an optional warmup phase with
// a barrier, then the measured phase. The issuer slice and each core's
// advance closure are built once and survive Reset (the core count is
// fixed for the System's lifetime).
func (s *System) start() {
	if s.issuers == nil {
		s.issuers = make([]issuer, s.Cfg.Cores)
		for c := range s.issuers {
			it := &s.issuers[c]
			it.s = s
			it.c = c
			it.advance = func() {
				it.remaining--
				it.pull()
			}
		}
	}
	if s.Cfg.WarmupOps > 0 {
		s.warming = true
		for c := range s.issuers {
			s.issuers[c].start(true, s.Cfg.WarmupOps)
		}
		return
	}
	s.beginMeasurement()
}

// beginMeasurement resets statistics (caches stay warm) and releases
// every core into the measured phase.
func (s *System) beginMeasurement() {
	s.warming = false
	s.Net.Stats = interconnect.LinkStats{}
	for _, n := range s.Nodes {
		n.Shared().ResetStats()
	}
	s.startedAt = s.Eng.Now()
	for c := range s.issuers {
		s.issuers[c].start(false, s.Cfg.OpsPerCore)
	}
}

// Run executes the simulation to completion and returns the results.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Run executes an assembled system. It releases the trace replay's
// resources (see Close) on return.
func (s *System) Run() (*Result, error) {
	defer s.Close()
	s.start()
	if err := s.Drain(); err != nil {
		return nil, err
	}
	if s.finished != s.Cfg.Cores {
		return nil, s.failRun(FailDeadlock, "")
	}
	// A replayed trace must never have been driven past its recorded
	// streams: NewSystem sizes the run to Len(), so any over-drive means
	// repeated operations silently skewed the measurement. Checked even
	// with SkipChecks — it invalidates the result, not just an invariant.
	if rp, ok := s.Gen.(*workload.StreamReplay); ok {
		// A decode failure mid-stream poisoned the replay (the reader
		// has no per-Next error path), so the ops fed after it were
		// repeats, not the trace. Checked even with SkipChecks.
		if err := rp.Err(); err != nil {
			return nil, fmt.Errorf("sim: trace replay failed: %w", err)
		}
		if n := rp.Overdriven(); n > 0 {
			return nil, fmt.Errorf("sim: trace over-driven: %d operations requested beyond the recorded streams", n)
		}
	}
	if !s.Cfg.SkipChecks {
		if err := s.CheckInvariants(); err != nil {
			return nil, err
		}
	}
	return s.collect(), nil
}

// Drain runs the engine until its event queue is empty: the one run
// loop, under the mid-run audit ready armed and the liveness watchdog.
// It returns the audit's first violation, or a FailWatchdog RunError
// once the clock passes Cfg.MaxCycles. Whether the drained work was
// complete is the caller's to judge: Run counts finished cores, and any
// other driver (the litmus harness) its own operations.
func (s *System) Drain() error {
	const chunk = 4 << 20
	for {
		n := s.Eng.Run(chunk)
		if s.auditErr != nil {
			return s.auditErr
		}
		if uint64(s.Eng.Now()) > s.Cfg.MaxCycles {
			return s.failRun(FailWatchdog, "")
		}
		if n < chunk {
			return nil
		}
	}
}

func (s *System) collect() *Result {
	r := &Result{Config: s.Cfg, Cycles: uint64(s.doneAt - s.startedAt), Ops: s.opsIssued}
	ns := s.Net.Stats
	r.BytesByClass = ns.BytesByClass
	r.LinkBytes = ns.LinkBytes
	r.Dropped = ns.Dropped
	for _, n := range s.Nodes {
		st := n.Shared().St
		r.Misses += st.Misses
		addStats(&r.Stats, st)
	}
	if r.Misses > 0 {
		r.BytesPerMiss = float64(r.LinkBytes) / float64(r.Misses)
		r.AvgMissLatency = float64(r.Stats.MissLatencySum) / float64(r.Misses)
	}
	return r
}

func addStats(dst *protocol.Stats, src protocol.Stats) {
	dst.Loads += src.Loads
	dst.Stores += src.Stores
	dst.L1Hits += src.L1Hits
	dst.L2Hits += src.L2Hits
	dst.Misses += src.Misses
	dst.MissLatencySum += src.MissLatencySum
	dst.SharingMisses += src.SharingMisses
	dst.MemoryMisses += src.MemoryMisses
	dst.Reissues += src.Reissues
	dst.PersistentReqs += src.PersistentReqs
	dst.TenureTimeouts += src.TenureTimeouts
	dst.DirectIgnored += src.DirectIgnored
	dst.DirectResponded += src.DirectResponded
	dst.WritebacksDirty += src.WritebacksDirty
	dst.WritebacksClean += src.WritebacksClean
	dst.UpgradeMisses += src.UpgradeMisses
	dst.MigratoryUpgrades += src.MigratoryUpgrades
}

// CheckInvariants verifies end-of-run correctness: every controller
// quiesced, the invariants that hold at any instant (checkAnyInstant:
// token-flow errors, token conservation including owner tokens,
// single-writer/many-readers, the home-queue bound), no tokens left in
// flight, per-core coherence order, write serialisation, and the L2
// holder index.
func (s *System) CheckInvariants() error {
	for i, n := range s.Nodes {
		if !n.Quiesced() {
			return fmt.Errorf("sim: node %d not quiesced at end of run", i)
		}
	}
	if err := s.checkAnyInstant(); err != nil {
		return err
	}
	if s.auditor != nil && !s.auditor.QuiescentOK() {
		return fmt.Errorf("sim: tokens still in flight at quiescence (lost message?)")
	}
	if s.orderViolation != nil {
		return s.orderViolation
	}
	if err := s.checkWriteSerialization(); err != nil {
		return err
	}
	return s.checkHolders()
}

// checkHolders verifies the L2 holder index against the L2s that joined
// it: every bit it sets names a node whose L2 holds the block, and it
// sets as many bits as those L2s hold lines, so no line lacks its bit.
// A missing bit would let a holder ignore a request it must answer.
func (s *System) checkHolders() error {
	h := s.Env.Holders
	lines := 0
	for _, n := range s.Nodes {
		if l2 := n.Shared().L2; l2.Holders() == h {
			lines += l2.Len()
		}
	}
	set := 0
	var err error
	h.ForEach(func(a msg.Addr, id int) {
		set++
		if err == nil && s.Nodes[id].Shared().L2.Lookup(a) == nil {
			err = fmt.Errorf("sim: holder index names node %d for %#x, which its L2 does not hold", id, uint64(a))
		}
	})
	if err != nil {
		return err
	}
	if set != lines {
		return fmt.Errorf("sim: holder index sets %d bits, its L2s hold %d lines", set, lines)
	}
	return nil
}

// checkWriteSerialization verifies end to end that no store was lost,
// duplicated or fabricated: every store issued (Issue) bumped its
// block's version exactly once under the single-writer invariant, so
// the final maximum version of each block (across caches and the home
// memory) must equal the number of stores issued to it, which is 0 for
// a block no store reached.
func (s *System) checkWriteSerialization() error {
	if s.storeCounts == nil {
		return nil
	}
	maxVersion := new(addrmap.Map[uint64])
	consider := func(a msg.Addr, v uint64) {
		if p := maxVersion.Ptr(a); v > *p {
			*p = v
		}
	}
	for _, n := range s.Nodes {
		n.Shared().L2.ForEach(func(l *cache.Line) { consider(l.Addr, l.Version) })
		n.Home().ForEach(func(e *directory.Entry) { consider(e.Addr, e.MemVersion) })
	}
	var serErr error
	check := func(a msg.Addr, got, want uint64) {
		if got != want && serErr == nil {
			serErr = fmt.Errorf("sim: write serialisation violated at %#x: final version %d, %d stores issued",
				uint64(a), got, want)
		}
	}
	s.storeCounts.ForEach(func(a msg.Addr, want *uint64) {
		got, _ := maxVersion.Get(a)
		check(a, got, *want)
	})
	maxVersion.ForEach(func(a msg.Addr, got *uint64) {
		want, _ := s.storeCounts.Get(a)
		check(a, *got, want)
	})
	return serErr
}

// checkSingleWriter validates MOESI compatibility across all caches:
// at most one writer (M/E), never a writer coexisting with any other
// copy, and at most one owner. Of several violating blocks it reports
// the one with the smallest address, so the error does not depend on
// the order the caches are walked in.
func (s *System) checkSingleWriter() error {
	type blockView struct{ writers, holders, owners int }
	var views addrmap.Map[blockView]
	tokens := s.tokens()
	for _, n := range s.Nodes {
		n.Shared().L2.ForEach(func(l *cache.Line) {
			st := l.MOESI
			if tokens > 0 {
				st = l.Tok.ToMOESI(tokens)
			}
			if st == token.I {
				return
			}
			v := views.Ptr(l.Addr)
			v.holders++
			switch st {
			case token.M, token.E:
				v.writers++
				v.owners++
			case token.O, token.F:
				v.owners++
			}
		})
	}
	var bad blockView
	var badAddr msg.Addr
	found := false
	views.ForEach(func(a msg.Addr, v *blockView) {
		violates := v.writers > 1 || v.writers == 1 && v.holders > 1 || v.owners > 1
		if violates && (!found || a < badAddr) {
			bad, badAddr, found = *v, a, true
		}
	})
	switch {
	case !found:
		return nil
	case bad.writers > 1:
		return fmt.Errorf("sim: %d writable copies of %#x", bad.writers, uint64(badAddr))
	case bad.writers == 1 && bad.holders > 1:
		return fmt.Errorf("sim: writable copy of %#x coexists with %d other copies", uint64(badAddr), bad.holders-1)
	default:
		return fmt.Errorf("sim: %d owners of %#x", bad.owners, uint64(badAddr))
	}
}
