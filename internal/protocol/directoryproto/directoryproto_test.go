package directoryproto

import (
	"math/rand"
	"testing"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/token"
)

type cluster struct {
	eng   *event.Engine
	env   *protocol.Env
	nodes []*Node
}

func newCluster(n int, coarseness int, l2Bytes int) *cluster {
	eng := &event.Engine{}
	net := interconnect.New(eng, n, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, n)
	env.Tokens = 0
	if l2Bytes > 0 {
		env.L2Bytes = l2Bytes
		env.L1Bytes = l2Bytes / 4
	}
	c := &cluster{eng: eng, env: env}
	p := protocol.Params{Enc: directory.Encoding{Cores: n, Coarseness: coarseness}}
	for i := 0; i < n; i++ {
		nd := New(msg.NodeID(i), env, p)
		c.nodes = append(c.nodes, nd)
		net.Register(msg.NodeID(i), nd.Handle)
	}
	return c
}

// run drives the cluster until its event queue drains. A livelocked
// protocol never drains, so the engine runs in chunks and the test
// fails as soon as simulated time passes 10,000,000 cycles.
func (c *cluster) run(t *testing.T) {
	t.Helper()
	const chunk = 1 << 16
	for {
		n := c.eng.Run(chunk)
		if c.eng.Now() > 10_000_000 {
			t.Fatal("runaway simulation")
		}
		if n < chunk {
			return
		}
	}
}

func (c *cluster) access(node int, addr msg.Addr, write bool) *bool {
	done := new(bool)
	c.nodes[node].Access(addr, write, func() { *done = true })
	return done
}

func (c *cluster) checkQuiesced(t *testing.T) {
	t.Helper()
	for i, n := range c.nodes {
		if !n.Quiesced() {
			t.Fatalf("node %d not quiesced", i)
		}
	}
}

func addrHomedAt(env *protocol.Env, home int) msg.Addr {
	for a := msg.Addr(0x10000); ; a += msg.BlockBytes {
		if env.HomeOf(a) == msg.NodeID(home) {
			return a
		}
	}
}

func TestColdReadGetsE(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	done := c.access(0, a, false)
	c.run(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	if st := c.nodes[0].L2.Lookup(a).MOESI; st != token.E {
		t.Fatalf("state = %v, want E", st)
	}
	// Silent E->M: writing costs no new miss.
	misses := c.nodes[0].St.Misses
	c.access(0, a, true)
	c.run(t)
	if c.nodes[0].St.Misses != misses {
		t.Fatal("E->M upgrade was not silent")
	}
	if st := c.nodes[0].L2.Lookup(a).MOESI; st != token.M {
		t.Fatalf("state = %v, want M", st)
	}
	c.checkQuiesced(t)
}

func TestReadFromDirtyOwnerYieldsO(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)
	done := c.access(1, a, false)
	c.run(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	// Ownership transfers to the reader; the old owner keeps S.
	if st := c.nodes[1].L2.Lookup(a).MOESI; st != token.O {
		t.Fatalf("reader state = %v, want O (dirty ownership transfer)", st)
	}
	if st := c.nodes[0].L2.Lookup(a).MOESI; st != token.S {
		t.Fatalf("previous owner state = %v, want S", st)
	}
	e := c.nodes[3].Home().Entry(a)
	if e.Owner != 1 || !e.Sharers.Contains(0) {
		t.Fatalf("directory owner=%d sharers0=%v", e.Owner, e.Sharers.Contains(0))
	}
}

func TestWriteCollectsAcksFromSharers(t *testing.T) {
	c := newCluster(8, 1, 0)
	a := addrHomedAt(c.env, 7)
	for _, reader := range []int{0, 1, 2, 3} {
		c.access(reader, a, false)
		c.run(t)
	}
	done := c.access(4, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	for _, reader := range []int{0, 1, 2, 3} {
		if l := c.nodes[reader].L2.Lookup(a); l != nil && l.MOESI != token.I {
			t.Fatalf("reader %d not invalidated: %v", reader, l.MOESI)
		}
	}
	if st := c.nodes[4].L2.Lookup(a).MOESI; st != token.M {
		t.Fatalf("writer state = %v, want M", st)
	}
	c.checkQuiesced(t)
}

func TestUpgradeFromOwnerState(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true) // 0: M
	c.run(t)
	c.access(1, a, false) // 1: O, 0: S
	c.run(t)
	done := c.access(1, a, true) // upgrade in place
	c.run(t)
	if !*done {
		t.Fatal("upgrade did not complete")
	}
	if c.nodes[1].St.UpgradeMisses != 1 {
		t.Fatalf("upgrades = %d, want 1", c.nodes[1].St.UpgradeMisses)
	}
	if l := c.nodes[0].L2.Lookup(a); l != nil && l.MOESI != token.I {
		t.Fatal("old sharer not invalidated by upgrade")
	}
}

// TestUpgradeRaceConvertsToGetM: two owners-to-be race; the loser's
// upgrade must be converted into a full write miss by the home.
func TestUpgradeRaceConvertsToGetM(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)
	c.access(1, a, false) // 1: O (owner), 0: S
	c.run(t)
	// Both the owner (Upg) and the sharer (GetM) write simultaneously.
	d1 := c.access(1, a, true)
	d0 := c.access(0, a, true)
	c.run(t)
	if !*d1 || !*d0 {
		t.Fatalf("race starved: owner=%v sharer=%v", *d1, *d0)
	}
	writers := 0
	for _, n := range c.nodes {
		if l := n.L2.Lookup(a); l != nil && (l.MOESI == token.M) {
			writers++
		}
	}
	if writers != 1 {
		t.Fatalf("%d M copies after race", writers)
	}
	c.checkQuiesced(t)
}

// TestInexactEncodingSendsExtraInvalidations: with a coarse sharer
// vector, a write multicasts invalidations to the whole group and every
// target acknowledges — DIRECTORY's unnecessary-ack behaviour (§7).
func TestInexactEncodingSendsExtraInvalidations(t *testing.T) {
	c := newCluster(8, 4, 0) // 1 bit per 4 cores
	a := addrHomedAt(c.env, 7)
	c.access(0, a, false) // one real sharer in group {0..3}
	c.run(t)
	done := c.access(4, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	c.checkQuiesced(t)
}

func TestMigratoryDetection(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	// Train: read-write by 0, then read-write by 1 (handoff via GetM).
	for _, nd := range []int{0, 1, 0} {
		c.access(nd, a, false)
		c.run(t)
		c.access(nd, a, true)
		c.run(t)
	}
	if !c.nodes[3].Home().Entry(a).Migratory {
		t.Fatal("migratory pattern not detected")
	}
	// A converted read grants write permission without a second miss.
	c.access(2, a, false)
	c.run(t)
	misses := c.nodes[2].St.Misses
	c.access(2, a, true)
	c.run(t)
	if c.nodes[2].St.Misses != misses {
		t.Fatal("migratory read did not carry write permission")
	}
}

func TestReadSharingClearsMigratory(t *testing.T) {
	c := newCluster(4, 1, 0)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, false)
	c.run(t)
	c.access(0, a, true)
	c.run(t)
	c.access(1, a, false)
	c.run(t)
	c.access(1, a, true) // handoff: marks migratory
	c.run(t)
	// Two consecutive distinct readers clear the mark.
	c.access(2, a, false)
	c.run(t)
	c.access(3, a, false)
	c.run(t)
	if c.nodes[3].Home().Entry(a).Migratory {
		t.Fatal("read sharing did not clear the migratory mark")
	}
}

// TestWritebackRequestRace: with a tiny cache, a block is evicted and
// immediately re-requested, exercising the AwaitingWB path at the home.
func TestWritebackRequestRace(t *testing.T) {
	c := newCluster(4, 1, 1024) // 16-block L2
	base := addrHomedAt(c.env, 3)
	// Write the target, then stream over conflicting blocks to evict it,
	// then immediately touch it again.
	c.access(0, base, true)
	c.run(t)
	var last *bool
	for i := 1; i <= 20; i++ {
		last = c.access(0, base+msg.Addr(i*1024), true) // same set region
	}
	reread := c.access(0, base, true)
	c.run(t)
	if !*last || !*reread {
		t.Fatal("eviction-race accesses did not complete")
	}
	c.checkQuiesced(t)
	if c.nodes[0].St.WritebacksDirty == 0 {
		t.Fatal("no dirty writebacks; test not exercising eviction")
	}
}

// TestStress hammers hot blocks with a small cache from many nodes:
// every access completes and the system quiesces with coherent states.
func TestStress(t *testing.T) {
	for _, coarse := range []int{1, 4} {
		c := newCluster(8, coarse, 2048)
		r := rand.New(rand.NewSource(42))
		completed := 0
		var issue func(node, remaining int)
		issue = func(node, remaining int) {
			if remaining == 0 {
				return
			}
			a := msg.Addr(0x40000 + r.Intn(48)*64)
			c.nodes[node].Access(a, r.Intn(3) == 0, func() {
				completed++
				c.eng.After(event.Time(r.Intn(15)), event.Func(func(event.Time) { issue(node, remaining-1) }))
			})
		}
		for nd := range c.nodes {
			issue(nd, 120)
		}
		c.run(t)
		if completed != 8*120 {
			t.Fatalf("coarse=%d: completed %d/960", coarse, completed)
		}
		c.checkQuiesced(t)
		// Single-writer check over final states.
		for blk := 0; blk < 48; blk++ {
			a := msg.Addr(0x40000 + blk*64)
			writers, holders := 0, 0
			for _, n := range c.nodes {
				if l := n.L2.Lookup(a); l != nil && l.MOESI != token.I {
					holders++
					if l.MOESI == token.M || l.MOESI == token.E {
						writers++
					}
				}
			}
			if writers > 1 || (writers == 1 && holders > 1) {
				t.Fatalf("coarse=%d block %#x: %d writers among %d holders", coarse, uint64(a), writers, holders)
			}
		}
	}
}
