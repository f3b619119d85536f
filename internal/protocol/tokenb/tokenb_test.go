package tokenb

import (
	"math/rand"
	"testing"

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

func newCluster(n int) *cluster {
	eng := &event.Engine{}
	net := interconnect.New(eng, n, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, n)
	c := &cluster{eng: eng, env: env}
	for i := 0; i < n; i++ {
		nd := New(msg.NodeID(i), env, protocol.Params{})
		c.nodes = append(c.nodes, nd)
		net.Register(msg.NodeID(i), nd.Handle)
	}
	return c
}

func (c *cluster) run(t *testing.T) {
	t.Helper()
	c.eng.Run(0)
}

func (c *cluster) access(node int, addr msg.Addr, write bool) *bool {
	done := new(bool)
	c.nodes[node].Access(addr, write, func() { *done = true })
	return done
}

func (c *cluster) checkConservation(t *testing.T) {
	t.Helper()
	var holders []token.Holder
	for _, n := range c.nodes {
		holders = append(holders, n.L2, n.Home())
	}
	if err := token.CheckConservation(c.env.Tokens, holders); err != nil {
		t.Fatal(err)
	}
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
	for a := msg.Addr(0x10000); ; a += msg.Addr(env.BlockSize) {
		if env.HomeOf(a) == msg.NodeID(home) {
			return a
		}
	}
}

func TestColdReadFromMemory(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 3)
	done := c.access(0, a, false)
	c.run(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	// Unshared block: the E-grant equivalent (all tokens).
	if st := c.nodes[0].L2.Lookup(a).Tok.ToMOESI(4); st != token.E {
		t.Fatalf("state = %v, want E", st)
	}
	c.checkConservation(t)
}

func TestColdWrite(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 2)
	done := c.access(1, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	if st := c.nodes[1].L2.Lookup(a).Tok.ToMOESI(4); st != token.M {
		t.Fatalf("state = %v, want M", st)
	}
	c.checkConservation(t)
}

// TestMigratoryHandOff: a read from an M-state owner that wrote the
// block takes everything (GEMS TokenB's migratory support), so the
// reader's own write hits locally.
func TestMigratoryHandOff(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)
	done := c.access(1, a, false)
	c.run(t)
	if !*done {
		t.Fatal("sharing read did not complete")
	}
	if c.nodes[1].St.SharingMisses != 1 {
		t.Fatalf("sharing misses = %d", c.nodes[1].St.SharingMisses)
	}
	if l := c.nodes[0].L2.Lookup(a); l != nil && !l.Tok.Zero() {
		t.Fatal("written owner should hand over everything on a migratory read")
	}
	misses := c.nodes[1].St.Misses
	wrDone := c.access(1, a, true)
	c.run(t)
	if !*wrDone || c.nodes[1].St.Misses != misses {
		t.Fatal("post-hand-off write should hit locally")
	}
	c.checkConservation(t)
}

// TestCacheToCacheTransfer: a read chain over an unwritten block keeps
// every previous owner in S while ownership migrates to the most recent
// reader.
func TestCacheToCacheTransfer(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 3)
	c.access(0, a, false) // E grant from memory, never written
	c.run(t)
	done := c.access(1, a, false)
	c.run(t)
	if !*done {
		t.Fatal("sharing read did not complete")
	}
	// Previous owner keeps a shared copy; reader owns.
	if l := c.nodes[0].L2.Lookup(a); l == nil || !l.Tok.CanRead() {
		t.Fatal("previous owner lost its copy")
	}
	if l := c.nodes[1].L2.Lookup(a); !l.Tok.Owner {
		t.Fatal("ownership did not transfer to the reader")
	}
	c.checkConservation(t)
}

func TestWriteCollectsFromEveryone(t *testing.T) {
	c := newCluster(8)
	a := addrHomedAt(c.env, 7)
	for _, rd := range []int{0, 1, 2, 3} {
		c.access(rd, a, false)
		c.run(t)
	}
	done := c.access(5, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	for _, rd := range []int{0, 1, 2, 3} {
		if l := c.nodes[rd].L2.Lookup(a); l != nil && !l.Tok.Zero() {
			t.Fatalf("reader %d kept %d tokens", rd, l.Tok.Count)
		}
	}
	c.checkConservation(t)
	c.checkQuiesced(t)
}

// TestContentionTriggersReissues: when every node hammers one block,
// transient requests get ignored (nodes have their own misses
// outstanding) and must be reissued — the paper's motivation for TokenB's
// reissue/persistent machinery (§2).
func TestContentionTriggersReissues(t *testing.T) {
	c := newCluster(8)
	a := addrHomedAt(c.env, 0)
	var dones []*bool
	var reissueOps int
	for round := 0; round < 6; round++ {
		for nd := range c.nodes {
			dones = append(dones, c.access(nd, a, true))
			reissueOps++
		}
		// All eight writes race; run to quiescence each round.
		c.run(t)
	}
	for i, d := range dones {
		if !*d {
			t.Fatalf("op %d starved", i)
		}
	}
	c.checkConservation(t)
	c.checkQuiesced(t)
}

// TestPersistentRequestResolvesStarvation forces the escalation path by
// making transient requests fail: two nodes exchange a block while a
// third is perpetually mid-miss. We simulate pathological bouncing by
// issuing overlapping writes from all nodes repeatedly and verifying that
// any persistent requests that do fire resolve correctly.
func TestPersistentRequestResolvesStarvation(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 0)
	r := rand.New(rand.NewSource(5))
	completed := 0
	var issue func(node, remaining int)
	issue = func(node, remaining int) {
		if remaining == 0 {
			return
		}
		c.nodes[node].Access(a, true, func() {
			completed++
			c.eng.After(event.Time(r.Intn(5)), event.Func(func(event.Time) { issue(node, remaining-1) }))
		})
	}
	for nd := range c.nodes {
		issue(nd, 50)
	}
	c.run(t)
	if completed != 200 {
		t.Fatalf("completed %d/200", completed)
	}
	c.checkConservation(t)
	c.checkQuiesced(t)
}

// TestPersistentActivationDirect exercises the arbiter machinery
// deliberately: a requester escalates and every other node forwards its
// tokens.
func TestPersistentActivationDirect(t *testing.T) {
	c := newCluster(4)
	a := addrHomedAt(c.env, 2)
	c.access(0, a, true) // node 0 holds everything
	c.run(t)

	// Node 1 wants to write; force its escalation by making it issue a
	// persistent request directly (as if its retries were exhausted).
	done := new(bool)
	n1 := c.nodes[1]
	n1.Access(a, true, func() { *done = true })
	ms := n1.mshrs.Get(a)
	if ms == nil {
		t.Fatal("no MSHR")
	}
	ms.persistent = true
	n1.St.PersistentReqs++
	n1.Send(&msg.Message{
		Type: msg.PersistentReq, Addr: a, Dst: c.env.HomeOf(a),
		Requester: 1, IsWrite: true, Persistent: true,
	})
	c.run(t)
	if !*done {
		t.Fatal("persistent request did not complete the miss")
	}
	c.checkConservation(t)
	c.checkQuiesced(t)
	if c.nodes[2].arbiters.Len() == 0 {
		t.Fatal("arbiter state never created at the home")
	}
}

func TestEvictionReturnsTokensToMemory(t *testing.T) {
	eng := &event.Engine{}
	net := interconnect.New(eng, 4, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, 4)
	env.L2Bytes = 1024
	env.L1Bytes = 256
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nd := New(msg.NodeID(i), env, protocol.Params{})
		nodes = append(nodes, nd)
		net.Register(msg.NodeID(i), nd.Handle)
	}
	// Stream far more blocks than fit.
	done := 0
	for i := 0; i < 64; i++ {
		nodes[0].Access(msg.Addr(0x10000+i*64), true, func() { done++ })
		eng.Run(0)
	}
	if done != 64 {
		t.Fatalf("completed %d/64", done)
	}
	if nodes[0].St.WritebacksDirty == 0 {
		t.Fatal("no dirty writebacks observed")
	}
	var holders []token.Holder
	for _, n := range nodes {
		holders = append(holders, n.L2, n.Home())
	}
	if err := token.CheckConservation(4, holders); err != nil {
		t.Fatal(err)
	}
}
