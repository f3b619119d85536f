package core

import (
	"math/rand"
	"testing"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/token"
)

// cluster is a hand-driven PATCH system for scripted protocol scenarios.
type cluster struct {
	eng   *event.Engine
	net   *interconnect.Network
	env   *protocol.Env
	nodes []*Node
}

func newCluster(n int, p protocol.Params) *cluster {
	eng := &event.Engine{}
	net := interconnect.New(eng, n, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, n)
	c := &cluster{eng: eng, net: net, env: env}
	p.Enc = directory.FullMap(n)
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

// access performs a blocking access and reports completion.
func (c *cluster) access(node int, addr msg.Addr, write bool) *bool {
	done := new(bool)
	c.nodes[node].Access(addr, write, func() { *done = true })
	return done
}

// checkConservation verifies Rule #1 across the cluster.
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

// addrHomedAt returns a block address whose home is the given node.
func addrHomedAt(env *protocol.Env, home int) msg.Addr {
	for a := msg.Addr(0x10000); ; a += msg.BlockBytes {
		if env.HomeOf(a) == msg.NodeID(home) {
			return a
		}
	}
}

func TestColdReadGrantsExclusive(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	done := c.access(0, a, false)
	c.run(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	line := c.nodes[0].L2.Lookup(a)
	if line == nil || line.Tok.ToMOESI(4) != token.E {
		t.Fatalf("cold read state = %v, want E (all tokens granted)", line.Tok.ToMOESI(4))
	}
	// Silent E->M upgrade: a write now hits without a new miss.
	misses := c.nodes[0].St.Misses
	done2 := c.access(0, a, true)
	c.run(t)
	if !*done2 || c.nodes[0].St.Misses != misses {
		t.Fatal("write after E grant should hit silently")
	}
	if c.nodes[0].L2.Lookup(a).Tok.ToMOESI(4) != token.M {
		t.Fatal("silent upgrade did not reach M")
	}
	c.checkQuiesced(t)
	c.checkConservation(t)
}

func TestColdWriteReachesM(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 2)
	done := c.access(1, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	line := c.nodes[1].L2.Lookup(a)
	if st := line.Tok.ToMOESI(4); st != token.M {
		t.Fatalf("state = %v, want M", st)
	}
	if !line.Tok.Dirty {
		t.Fatal("owner token not marked dirty after write (Rule #2)")
	}
	c.checkConservation(t)
}

// TestReadChainKeepsSharers reproduces the DIRECTORY-matching behaviour:
// successive readers each retain a shared copy while ownership migrates
// to the most recent reader.
func TestReadChainKeepsSharers(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	for _, reader := range []int{0, 1, 2} {
		done := c.access(reader, a, false)
		c.run(t)
		if !*done {
			t.Fatalf("reader %d did not complete", reader)
		}
	}
	// All three readers can still read; the last one owns.
	for _, reader := range []int{0, 1, 2} {
		line := c.nodes[reader].L2.Lookup(a)
		if line == nil || !line.Tok.CanRead() {
			t.Fatalf("reader %d lost its shared copy", reader)
		}
	}
	if !c.nodes[2].L2.Lookup(a).Tok.Owner {
		t.Fatal("ownership did not migrate to the most recent reader")
	}
	c.checkConservation(t)
}

func TestWriteInvalidatesAllSharers(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	for _, reader := range []int{0, 1, 2} {
		c.access(reader, a, false)
		c.run(t)
	}
	done := c.access(3, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	for _, reader := range []int{0, 1, 2} {
		if l := c.nodes[reader].L2.Lookup(a); l != nil && !l.Tok.Zero() {
			t.Fatalf("reader %d survived invalidation with %d tokens", reader, l.Tok.Count)
		}
	}
	if st := c.nodes[3].L2.Lookup(a).Tok.ToMOESI(4); st != token.M {
		t.Fatalf("writer state = %v, want M", st)
	}
	c.checkConservation(t)
}

func TestUpgradeMissCollectsAllTokens(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	c.access(0, a, false)
	c.run(t)
	c.access(1, a, false) // node 1 becomes owner, node 0 keeps a token
	c.run(t)
	// Node 1 (owner, some tokens) writes: upgrade miss.
	done := c.access(1, a, true)
	c.run(t)
	if !*done {
		t.Fatal("upgrade did not complete")
	}
	if c.nodes[1].St.UpgradeMisses != 1 {
		t.Fatalf("upgrade misses = %d", c.nodes[1].St.UpgradeMisses)
	}
	if st := c.nodes[1].L2.Lookup(a).Tok.ToMOESI(4); st != token.M {
		t.Fatalf("state = %v, want M", st)
	}
	c.checkConservation(t)
}

// TestFigure1RaceResolvedByTenure reproduces the paper's Figure 1/2
// scenario: P0 owns the block with spare tokens, P1 shares it, and P2
// and P1 race writes. P1's request wins the home (node 1 is its home),
// while P2's direct request takes P0's tokens. Those tokens are
// untenured at P2, which ignores P1's requests; under naive token
// counting both writers starve. Token tenure must time them out to the
// home, which redirects them to P1, and both writes complete. Every
// gap from 2 to 8 cycles between the two writes stages the race.
func TestFigure1RaceResolvedByTenure(t *testing.T) {
	for gap := event.Time(2); gap <= 8; gap++ {
		c := newCluster(4, protocol.Params{Policy: predictor.All, BestEffort: true})
		a := addrHomedAt(c.env, 1)

		// P1 writes, then P0 reads: ownership and all but one token
		// move to P0 (O, 3 tokens), P1 keeps one (S).
		c.access(1, a, true)
		c.run(t)
		c.access(0, a, false)
		c.run(t)
		p0, p1 := c.nodes[0].L2.Lookup(a), c.nodes[1].L2.Lookup(a)
		if p0 == nil || p0.Tok.ToMOESI(4) != token.O || p0.Tok.Count != 3 || p1 == nil || p1.Tok.ToMOESI(4) != token.S {
			t.Fatalf("gap %d: initial state is not P0 = O t=3, P1 = S", gap)
		}

		// Idle past both post-deactivation windows, then race.
		var done1, done2 *bool
		start := c.eng.Now() + 2000
		c.eng.At(start, event.Func(func(event.Time) { done2 = c.access(2, a, true) }))
		c.eng.At(start+gap, event.Func(func(event.Time) { done1 = c.access(1, a, true) }))
		c.eng.Run(100_000) // bounded: an unresolved race never drains
		if !*done2 || !*done1 {
			t.Fatalf("gap %d: race starved: P2 done=%v P1 done=%v", gap, *done2, *done1)
		}
		timeouts := uint64(0)
		for _, n := range c.nodes {
			timeouts += n.St.TenureTimeouts
		}
		if timeouts == 0 {
			t.Fatalf("gap %d: no tenure timeout fired: the race was not staged", gap)
		}
		c.checkQuiesced(t)
		c.checkConservation(t)
		// Exactly one of them holds all tokens at the end.
		writers := 0
		for _, n := range c.nodes {
			if l := n.L2.Lookup(a); l != nil && l.Tok.CanWrite(4) {
				writers++
			}
		}
		if writers != 1 {
			t.Fatalf("gap %d: %d final writers, want 1", gap, writers)
		}
	}
}

// TestTenureTimeoutDiscardsUnsolicitedTokens: tokens that arrive at a
// processor with no outstanding request remain untenured and must flow
// back to the home after the probationary period (Rules #2 and #4).
func TestTenureTimeoutDiscardsUnsolicitedTokens(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	home := 3
	a := addrHomedAt(c.env, home)
	e := c.nodes[home].Home().Entry(a)
	tokens, owner, _ := e.Tok.TakeAll()

	// Inject the home's tokens at node 0 as an unsolicited response.
	m := &msg.Message{Type: msg.Data, Addr: a, Src: msg.NodeID(home), Dst: 0, Requester: 0}
	token.Attach(m, tokens, owner, false, true)
	c.nodes[0].Handle(c.eng.Now(), m)

	line := c.nodes[0].L2.Lookup(a)
	if line == nil || !line.Untenured {
		t.Fatal("unsolicited tokens must arrive untenured (Rule #2)")
	}
	c.run(t) // the probationary timer fires and returns everything home
	if l := c.nodes[0].L2.Lookup(a); l != nil && !l.Tok.Zero() {
		t.Fatal("untenured tokens survived the probationary period")
	}
	if c.nodes[0].St.TenureTimeouts == 0 {
		t.Fatal("tenure timeout not recorded")
	}
	if e.Tok.Count != tokens || !e.Tok.Owner {
		t.Fatalf("home did not recover the tokens: %+v", e.Tok)
	}
	c.checkConservation(t)
}

// TestDirectRequestTwoHopTransfer: with an owner predictor warmed up, a
// sharing miss is satisfied by a direct request without waiting for the
// home's forward.
func TestDirectRequestTwoHopTransfer(t *testing.T) {
	c := newCluster(4, protocol.Params{Policy: predictor.All, BestEffort: true})
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true) // P0 owns all tokens
	c.run(t)
	// Wait out P0's post-deactivation direct-ignore window.
	c.eng.After(5000, event.Func(func(event.Time) { c.access(1, a, false) }))
	c.run(t)
	if c.nodes[0].St.DirectResponded == 0 {
		t.Fatal("owner never answered a direct request")
	}
	c.checkConservation(t)
}

// TestPostDeactivationWindowIgnoresDirects: immediately after completing
// a request, a processor ignores direct requests for the block (§5.2).
func TestPostDeactivationWindowIgnoresDirects(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)

	ignored := c.nodes[0].St.DirectIgnored
	d := &msg.Message{Type: msg.DirectGetM, Addr: a, Src: 1, Dst: 0, Requester: 1, IsWrite: true}
	c.nodes[0].Handle(c.eng.Now(), d)
	if c.nodes[0].St.DirectIgnored != ignored+1 {
		t.Fatal("direct request during post-deactivation window not ignored")
	}
	if l := c.nodes[0].L2.Lookup(a); l == nil || !l.Tok.CanWrite(4) {
		t.Fatal("tokens leaked through the ignore window")
	}
}

// TestHotBlockStress hammers a handful of blocks from every node with
// racing reads and writes and verifies liveness plus conservation.
func TestHotBlockStress(t *testing.T) {
	for _, cfg := range []protocol.Params{
		{Policy: predictor.None},
		{Policy: predictor.All, BestEffort: true},
		{Policy: predictor.All, BestEffort: false},
		{Policy: predictor.Owner, BestEffort: true},
	} {
		cfg := cfg
		t.Run(cfg.Policy.String(), func(t *testing.T) {
			c := newCluster(8, cfg)
			r := rand.New(rand.NewSource(99))
			blocks := []msg.Addr{0x10000, 0x10040, 0x10080}
			completed := 0
			var issue func(node, remaining int)
			issue = func(node, remaining int) {
				if remaining == 0 {
					return
				}
				a := blocks[r.Intn(len(blocks))]
				c.nodes[node].Access(a, r.Intn(2) == 0, func() {
					completed++
					c.eng.After(event.Time(r.Intn(20)), event.Func(func(event.Time) {
						issue(node, remaining-1)
					}))
				})
			}
			const opsPer = 60
			for nd := range c.nodes {
				issue(nd, opsPer)
			}
			c.run(t)
			if completed != 8*opsPer {
				t.Fatalf("completed %d/%d ops", completed, 8*opsPer)
			}
			c.checkQuiesced(t)
			c.checkConservation(t)
		})
	}
}

// TestEvictionStress uses tiny caches to exercise writeback/request
// races (PutM and PutClean flowing home mid-transaction).
func TestEvictionStress(t *testing.T) {
	eng := &event.Engine{}
	net := interconnect.New(eng, 4, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, 4)
	env.L2Bytes = 1024 // 16 blocks: constant eviction pressure
	env.L1Bytes = 256
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nd := New(msg.NodeID(i), env, protocol.Params{Enc: directory.FullMap(4), Policy: predictor.All, BestEffort: true})
		nodes = append(nodes, nd)
		net.Register(msg.NodeID(i), nd.Handle)
	}
	r := rand.New(rand.NewSource(7))
	completed := 0
	var issue func(node, remaining int)
	issue = func(node, remaining int) {
		if remaining == 0 {
			return
		}
		a := msg.Addr(0x20000 + r.Intn(64)*64) // 64 blocks >> cache capacity
		nodes[node].Access(a, r.Intn(3) == 0, func() {
			completed++
			eng.After(event.Time(r.Intn(10)), event.Func(func(event.Time) { issue(node, remaining-1) }))
		})
	}
	for nd := range nodes {
		issue(nd, 150)
	}
	eng.Run(0)
	if completed != 4*150 {
		t.Fatalf("completed %d/600", completed)
	}
	var holders []token.Holder
	dirty := uint64(0)
	for _, n := range nodes {
		holders = append(holders, n.L2, n.Home())
		dirty += n.St.WritebacksDirty + n.St.WritebacksClean
	}
	if dirty == 0 {
		t.Fatal("stress produced no writebacks; test is not exercising evictions")
	}
	if err := token.CheckConservation(4, holders); err != nil {
		t.Fatal(err)
	}
}

func TestMigratoryOptimisation(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	// Train the detector: read-then-write by successive cores.
	for round := 0; round < 3; round++ {
		for _, nd := range []int{0, 1} {
			c.access(nd, a, false)
			c.run(t)
			c.access(nd, a, true)
			c.run(t)
		}
	}
	home := c.nodes[3]
	if !home.Home().Entry(a).Migratory {
		t.Fatal("migratory pattern not detected")
	}
	// The next read should be converted: the reader gets an exclusive
	// copy so its write hits locally.
	c.access(2, a, false)
	c.run(t)
	misses := c.nodes[2].St.Misses
	c.access(2, a, true)
	c.run(t)
	if c.nodes[2].St.Misses != misses {
		t.Fatal("migratory read did not grant write permission")
	}
	c.checkConservation(t)
}
