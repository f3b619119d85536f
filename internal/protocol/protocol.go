// Package protocol holds the plumbing shared by the three coherence
// protocols in this repository (DIRECTORY, PATCH, TokenB): the node
// contract the simulator drives, the shared environment (engine,
// network, latencies, home mapping), and the state and mechanics every
// backend keeps in its embedded Base — the cache hierarchy, the home
// slice, statistics, the outstanding-miss table, deferred home and
// delayed-send messages, and round-trip tracking used to size timeouts.
package protocol

import (
	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
)

// Node is one core's coherence controller (cache side plus the home
// directory slice for the addresses interleaved to it). The simulator,
// its checkers and the litmus harness drive every backend through this
// contract alone; concrete node types appear only where nodes are
// constructed.
type Node interface {
	// Access performs a memory operation. done is invoked (possibly
	// immediately, possibly cycles later) when the core may proceed.
	Access(addr msg.Addr, isWrite bool, done func())

	// Handle receives a coherence message from the interconnect.
	Handle(now event.Time, m *msg.Message)

	// Quiesced reports whether the node has no outstanding protocol work
	// (used by liveness checking at end of simulation).
	Quiesced() bool

	// Shared returns the node's embedded Base: caches (coherence lives
	// at the L2), statistics, the perform Observer, and the messages it
	// holds off the wire (Parked). Callers read it freely; the only
	// writes the contract allows are setting Observer and calling
	// ResetStats.
	Shared() *Base

	// Home returns the node's home slice for the blocks interleaved to
	// it: the directory (DIRECTORY, PATCH) or the memory token store
	// (TokenB). Its entries carry the home's token holdings and memory
	// versions; callers must not mutate it.
	Home() *directory.Directory

	// AppendMSHRDiags appends one record per outstanding miss, sorted by
	// address, for failure diagnostics.
	AppendMSHRDiags(dst []MSHRDiag) []MSHRDiag

	// Reset returns the node to its freshly constructed state under p,
	// retaining allocated capacity (cache arrays, directory slabs and
	// index, side tables, MSHR and task free-lists). It must only be
	// called on a quiesced node of a drained system (engine and network
	// already reset); behaviour after a reset is indistinguishable from
	// a new node's built with p.
	Reset(p Params)
}

// Params are the protocol settings of one run: everything a node's
// Reset may change without rebuilding it. The PATCH fields select its
// variant (§6) and ablations; the other backends ignore them.
type Params struct {
	// Enc is the home directory's sharer encoding (1 = full map,
	// Figures 9-10). TokenB keeps no sharer state and ignores it.
	Enc directory.Encoding

	// Policy is PATCH's destination-set prediction policy (None, Owner,
	// BroadcastIfShared, All).
	Policy predictor.Policy

	// BestEffort delivers PATCH's direct requests on the deprioritised
	// droppable virtual network (the paper's default). Setting it false
	// yields PATCH-ALL-NONADAPTIVE: guaranteed-delivery direct requests
	// that contend with everything else.
	BestEffort bool

	// TenureTimeoutFactor scales PATCH's probationary period relative
	// to the dynamic average round trip; 0 selects the paper's 2x
	// (§5.2). Used by the ablation benchmarks.
	TenureTimeoutFactor float64

	// NoDeactWindow disables PATCH's post-deactivation direct-request
	// ignore window (§5.2's second race mitigation). Used by the
	// ablation benchmarks.
	NoDeactWindow bool
}

// MSHRDiag describes one outstanding miss for liveness forensics.
// AppendMSHRDiags emits them sorted by address so diagnostic dumps are
// deterministic.
type MSHRDiag struct {
	Node   msg.NodeID
	Addr   msg.Addr
	Issued event.Time
	Write  bool
}

// Env is the environment shared by all nodes of one simulated system.
type Env struct {
	Eng *event.Engine
	Net *interconnect.Network
	N   int // number of cores

	BlockSize   int
	L1Latency   int
	L2Latency   int
	DirLatency  int
	DRAMLatency int

	// L1Bytes and L2Bytes size the private hierarchy (64 KB / 1 MB in the
	// paper); tests shrink them to force evictions and writeback races.
	L1Bytes int
	L2Bytes int

	// Tokens is the per-block token count T of the token-counting
	// protocols (PATCH, TokenB). DefaultEnv sets it to N for every
	// protocol; DIRECTORY ignores it.
	Tokens int
}

// DefaultEnv fills in the paper's latency parameters (§8.1).
func DefaultEnv(eng *event.Engine, net *interconnect.Network, n int) *Env {
	return &Env{
		Eng: eng, Net: net, N: n,
		BlockSize:   msg.BlockBytes,
		L1Latency:   1,
		L2Latency:   12,
		DirLatency:  16,
		DRAMLatency: 80,
		L1Bytes:     64 << 10,
		L2Bytes:     1 << 20,
		Tokens:      n,
	}
}

// HomeOf maps a block address to its home node by block interleaving.
func (e *Env) HomeOf(a msg.Addr) msg.NodeID {
	return msg.NodeID((uint64(a) / uint64(e.BlockSize)) % uint64(e.N))
}

// Stats collects the per-node performance counters the experiments
// aggregate.
type Stats struct {
	Loads, Stores     uint64
	L1Hits, L2Hits    uint64
	Misses            uint64 // demand misses that went to the protocol
	MissLatencySum    uint64 // cycles from issue to core restart
	SharingMisses     uint64 // misses served by another cache
	MemoryMisses      uint64 // misses served by memory
	Reissues          uint64 // TokenB reissued requests
	PersistentReqs    uint64 // TokenB persistent-request escalations
	TenureTimeouts    uint64 // PATCH untenured-token discards
	DirectIgnored     uint64 // direct requests ignored by policy
	DirectResponded   uint64 // direct requests answered with tokens
	WritebacksDirty   uint64
	WritebacksClean   uint64
	UpgradeMisses     uint64
	MigratoryUpgrades uint64 // GetS converted to exclusive by migratory opt
}

// Base carries the pieces every protocol node shares: identity, the
// two-level private cache hierarchy (64 KB L1 filter over a 1 MB L2),
// the home slice, statistics, RTT tracking, and the wiring to the
// node's MSHR table, victim writeback and home dispatch (Bind). Each
// backend embeds it, so its methods — including Shared, Home,
// AppendMSHRDiags and the default Quiesced of the Node contract — are
// written once.
type Base struct {
	ID  msg.NodeID
	Env *Env
	L1  *cache.Cache
	L2  *cache.Cache
	St  Stats

	// Observer, when set, is invoked at the instant each memory operation
	// is performed, with the block's write version at that point (the
	// version a load observed, or the version a store produced). Checkers
	// use it to verify per-core coherence order online.
	Observer func(addr msg.Addr, isWrite bool, version uint64)

	// Scratch is a per-node destination-id scratch buffer for
	// SharerSet.AppendMembers expansions on the hot path; each use
	// re-slices it to zero length and consumes the result before the
	// next use.
	Scratch []msg.NodeID

	// home is the node's home slice (see Node.Home).
	home *directory.Directory

	// avgRTT is an exponentially weighted moving average of observed
	// request round trips, used by PATCH (tenure timeout = 2x) and TokenB
	// (reissue timeout = 2x). Initialised from the network diameter.
	avgRTT float64

	// others caches the OthersExcept broadcast set.
	others []msg.NodeID

	// Set once by Bind: the protocol node embedding this Base (the
	// pooled replay tasks call self.Access without allocating a
	// method-value closure), its MSHR table, the victim writeback
	// InstallLine runs once per eviction, its victim filter, and the
	// home dispatch HomeDefer runs once the directory lookup completes.
	self       Node
	misses     mshrTable
	evict      func(victim cache.Line)
	avoid      func(msg.Addr) bool
	homeLookup func(now event.Time, m *msg.Message)

	// replayFree and parkFree pool the node's deferred-work tasks so
	// steady-state waiter replays, home lookups and delayed sends
	// allocate nothing.
	replayFree FreeList[replayTask]
	parkFree   FreeList[parkedTask]

	// parked lists the messages the node holds off the wire (see
	// Parked): delivered home messages waiting out the directory lookup
	// and delayed sends waiting out the directory/DRAM latency.
	parked []*parkedTask
}

// FreeList is the shared recycling discipline for pooled per-node
// values (MSHRs, deferred home/timer/replay/send tasks): Get pops a
// recycled value or allocates a zero one, Put pushes one back. Callers
// reinitialise recycled values themselves — retaining grown capacity
// (a recycled MSHR's waiter slice) is the point — and must drop
// references (callbacks, pooled messages) before Put so retired work
// stays collectable.
type FreeList[T any] struct{ free []*T }

// Get pops a recycled value, or allocates a zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	return new(T)
}

// Put recycles a value.
func (f *FreeList[T]) Put(t *T) { f.free = append(f.free, t) }

// NewBase constructs the cache hierarchy with the paper's sizes and the
// home slice: a directory with sharer encoding enc whose blocks start
// with tokens tokens at memory (0 for DIRECTORY). The embedding node
// must call Bind before use.
func NewBase(id msg.NodeID, env *Env, enc directory.Encoding, tokens int) Base {
	l1, l2 := env.L1Bytes, env.L2Bytes
	if l1 <= 0 {
		l1 = 64 << 10
	}
	if l2 <= 0 {
		l2 = 1 << 20
	}
	b := Base{
		ID:     id,
		Env:    env,
		L1:     cache.New(cache.Config{SizeBytes: l1, Ways: 4, BlockSize: env.BlockSize}),
		L2:     cache.New(cache.Config{SizeBytes: l2, Ways: 4, BlockSize: env.BlockSize}),
		home:   directory.New(id, enc, tokens),
		avgRTT: 100,
	}
	b.setHomeLatencies()
	return b
}

// Bind wires the protocol node built around b, once, at construction:
// self receives replayed accesses, misses is the node's MSHR table,
// evict writes back each victim InstallLine displaces, and home — nil
// for a node that never calls HomeDefer — dispatches each deferred home
// message once its directory lookup completes.
func (b *Base) Bind(self Node, misses mshrTable, evict func(victim cache.Line), home func(now event.Time, m *msg.Message)) {
	b.self = self
	b.misses = misses
	misses.bind(b)
	b.avoid = misses.busy
	b.evict = evict
	b.homeLookup = home
}

// ResetBase returns the shared node state to its freshly constructed
// condition (empty caches, home slice and MSHR table, zero statistics,
// initial RTT estimate, nothing parked) with the home re-encoded as
// NewBase would, retaining the cache arrays, directory slabs, scratch
// buffers and free-lists. The protocol node layered above is
// responsible for its own state.
func (b *Base) ResetBase(enc directory.Encoding, tokens int) {
	b.L1.Reset()
	b.L2.Reset()
	b.St = Stats{}
	b.Observer = nil
	b.avgRTT = 100
	for i, t := range b.parked {
		t.m = nil
		b.parked[i] = nil
	}
	b.parked = b.parked[:0]
	b.home.Reset(enc, tokens)
	b.setHomeLatencies()
	b.misses.reset()
}

func (b *Base) setHomeLatencies() {
	b.home.LookupLatency = b.Env.DirLatency
	b.home.DRAMLatency = b.Env.DRAMLatency
}

// Shared implements Node.
func (b *Base) Shared() *Base { return b }

// Home implements Node.
func (b *Base) Home() *directory.Directory { return b.home }

// AppendMSHRDiags implements Node.
func (b *Base) AppendMSHRDiags(dst []MSHRDiag) []MSHRDiag {
	return b.misses.appendDiags(b.ID, dst)
}

// Quiesced implements Node for a node whose only outstanding work is
// its misses and its home transactions: no MSHR open, no home entry
// busy or queued. Backends with side tables add their own conditions.
func (b *Base) Quiesced() bool {
	if b.misses.Len() != 0 {
		return false
	}
	quiet := true
	b.home.ForEach(func(e *directory.Entry) {
		if e.Busy || len(e.Queue) != 0 {
			quiet = false
		}
	})
	return quiet
}

// ObservePerform reports a performed operation to the Observer, if any.
func (b *Base) ObservePerform(addr msg.Addr, isWrite bool, version uint64) {
	if b.Observer != nil {
		b.Observer(addr, isWrite, version)
	}
}

// ResetStats clears the performance counters (after cache warmup) while
// preserving cache contents, predictor state and the RTT estimate.
func (b *Base) ResetStats() {
	b.St = Stats{}
	b.L1.ResetCounters()
	b.L2.ResetCounters()
}

// ObserveRTT folds a measured round trip into the moving average.
func (b *Base) ObserveRTT(rtt event.Time) {
	const alpha = 0.125
	b.avgRTT = (1-alpha)*b.avgRTT + alpha*float64(rtt)
}

// Timeout returns the adaptive timeout: twice the average round trip,
// floored to keep pathological short averages from thrashing.
func (b *Base) Timeout() event.Time {
	t := event.Time(2 * b.avgRTT)
	if t < 64 {
		t = 64
	}
	return t
}

// Msg acquires a pooled message initialised to v. Send/Multicast consume
// the reference; the network recycles the message after delivery, so a
// receiving handler that keeps it beyond its own return must Retain it
// (or copy it by value) and Release it when done.
func (b *Base) Msg(v msg.Message) *msg.Message { return b.Env.Net.NewMessage(v) }

// Send is a convenience wrapper stamping the source.
func (b *Base) Send(m *msg.Message) {
	m.Src = b.ID
	b.Env.Net.Send(m)
}

// Multicast stamps the source and fans out.
func (b *Base) Multicast(m *msg.Message, dsts []msg.NodeID) {
	m.Src = b.ID
	b.Env.Net.Multicast(m, dsts)
}

// OthersExcept returns every node id except self (broadcast destination
// sets for PATCH-ALL and TokenB). The slice is cached; callers must not
// mutate it.
func (b *Base) OthersExcept() []msg.NodeID {
	if b.others == nil {
		b.others = make([]msg.NodeID, 0, b.Env.N-1)
		for i := 0; i < b.Env.N; i++ {
			if msg.NodeID(i) != b.ID {
				b.others = append(b.others, msg.NodeID(i))
			}
		}
	}
	return b.others
}
