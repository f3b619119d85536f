package sim

import (
	"math/rand"
	"testing"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/protocol/directoryproto"
	"patch/internal/protocol/tokenb"

	"patch/internal/core"
)

// The steady-state allocation budget per measured window (300 ops/core
// x 4 cores, dozens of misses). The warmed engine averages ~0-3: the
// residue is runtime map churn (occasional overflow/growth inside the
// small MSHR / persistent-table maps) and pools hitting new high-water
// marks, not per-event work. A single reintroduced per-miss allocation
// — an MSHR, a waiter closure, a home-lookup or timer closure, a
// sharer-expansion slice — costs 100+ per window and fails the test
// rather than just drifting the bench gate.
const allocBudgetPerWindow = 8

// driverOp is one scripted access of the allocation harness.
type driverOp struct {
	addr  msg.Addr
	write bool
	think event.Time
}

// coreDriver issues a repeating per-core op sequence, doubling as its
// own think-time event.Task (like sim's issuer), so driving the window
// itself allocates nothing.
type coreDriver struct {
	eng     *event.Engine
	node    protocol.Node
	ops     []driverOp
	pos     int
	left    int
	addr    msg.Addr
	write   bool
	advance func()
}

func (d *coreDriver) pull() {
	if d.left == 0 {
		return
	}
	d.left--
	op := d.ops[d.pos]
	if d.pos++; d.pos == len(d.ops) {
		d.pos = 0
	}
	d.addr, d.write = op.addr, op.write
	d.eng.After(op.think, d)
}

// Fire implements event.Task: think time elapsed, perform the access.
func (d *coreDriver) Fire(event.Time) { d.node.Access(d.addr, d.write, d.advance) }

// allocHarness assembles one protocol system without the sim wrapper,
// so the window boundary is under test control.
type allocHarness struct {
	eng *event.Engine
	drv []*coreDriver
}

// window issues ops operations per core and drains the event queue.
func (h *allocHarness) window(ops int) {
	for _, d := range h.drv {
		d.left = ops
		d.pull()
	}
	h.eng.Run(0)
}

// newAllocHarness builds a 4-core system of the protocol that build
// returns (PATCH as PATCH-All), with a contended scripted workload (a
// small shared block pool spanning every home, ~40% writes).
func newAllocHarness(build func(id msg.NodeID, env *protocol.Env, p protocol.Params) protocol.Node) *allocHarness {
	const cores = 4
	eng := &event.Engine{}
	net := interconnect.New(eng, cores, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, cores)
	p := protocol.Params{Enc: directory.FullMap(cores), Variant: predictor.VariantAll}
	h := &allocHarness{eng: eng}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < cores; i++ {
		n := build(msg.NodeID(i), env, p)
		net.Register(msg.NodeID(i), n.Handle)
		ops := make([]driverOp, 512)
		for j := range ops {
			ops[j] = driverOp{
				addr:  msg.Addr(0x40000 + r.Intn(48)*64),
				write: r.Intn(10) < 4,
				think: event.Time(1 + r.Intn(8)),
			}
		}
		h.drv = append(h.drv, &coreDriver{eng: eng, node: n, ops: ops})
	}
	for _, d := range h.drv {
		d := d
		d.advance = func() { d.pull() }
	}
	return h
}

// measureSteadyAllocs warms the harness (free-lists, arenas, event and
// message pools, route caches all reach their high-water marks), then
// measures the allocations of further whole windows.
func measureSteadyAllocs(t *testing.T, h *allocHarness) float64 {
	t.Helper()
	for i := 0; i < 8; i++ {
		h.window(600)
	}
	return testing.AllocsPerRun(5, func() { h.window(300) })
}

func TestSteadyStateAllocsDirectory(t *testing.T) {
	h := newAllocHarness(func(id msg.NodeID, env *protocol.Env, p protocol.Params) protocol.Node {
		return directoryproto.New(id, env, p)
	})
	if got := measureSteadyAllocs(t, h); got > allocBudgetPerWindow {
		t.Errorf("steady-state window allocated %.0f times, budget %d", got, allocBudgetPerWindow)
	}
}

func TestSteadyStateAllocsPATCH(t *testing.T) {
	h := newAllocHarness(func(id msg.NodeID, env *protocol.Env, p protocol.Params) protocol.Node {
		return core.New(id, env, p)
	})
	if got := measureSteadyAllocs(t, h); got > allocBudgetPerWindow {
		t.Errorf("steady-state window allocated %.0f times, budget %d", got, allocBudgetPerWindow)
	}
}

func TestSteadyStateAllocsTokenB(t *testing.T) {
	h := newAllocHarness(func(id msg.NodeID, env *protocol.Env, p protocol.Params) protocol.Node {
		return tokenb.New(id, env, p)
	})
	if got := measureSteadyAllocs(t, h); got > allocBudgetPerWindow {
		t.Errorf("steady-state window allocated %.0f times, budget %d", got, allocBudgetPerWindow)
	}
}
