package core

import (
	"testing"

	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/token"
)

// TestStaleForwardAfterDirectTransfer: the directory-designated owner
// has already given its tokens away through a direct request when the
// home's forward arrives. It must still answer (zero tokens) so the
// activation bit reaches the requester, and the requester must complete.
func TestStaleForwardAfterDirectTransfer(t *testing.T) {
	c := newCluster(4, protocol.Params{Variant: predictor.VariantAll})
	a := addrHomedAt(c.env, 3)
	// P0 becomes owner of everything.
	c.access(0, a, true)
	c.run(t)
	// Wait out P0's post-deactivation window so directs are answered.
	c.eng.After(5000, event.Func(func(event.Time) {}))
	c.run(t)

	// P1 writes: its direct request will strip P0 before the home's
	// forward (which travels via the directory lookup) arrives.
	done := c.access(1, a, true)
	c.run(t)
	if !*done {
		t.Fatal("write did not complete")
	}
	c.checkQuiesced(t)
	c.checkConservation(t)
}

// TestZeroTokenSharerSilence: a forwarded invalidation reaching a stale
// sharer with no tokens must produce no acknowledgement (the §7 ack
// elision), which we observe via the network message counts.
func TestZeroTokenSharerSilence(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	node := c.nodes[2]
	before := node.St.DirectResponded
	// A forwarded write request to a node with nothing: silence.
	node.Handle(c.eng.Now(), &msg.Message{
		Type: msg.Fwd, Addr: a, Src: 3, Dst: 2, Requester: 1, IsWrite: true, Activated: true,
	})
	c.run(t)
	if node.St.DirectResponded != before {
		t.Fatal("stats should be untouched by a forwarded request")
	}
	// No message may have been generated towards node 1: check by
	// observing that node 1 received nothing (its handler would panic on
	// an unexpected ack with no MSHR only for home messages; instead just
	// assert network delivered nothing new beyond the fwd itself).
	if got := c.net.Stats.MsgsByClass[msg.ClassAck]; got != 0 {
		t.Fatalf("zero-token sharer sent %d acks", got)
	}
}

// TestForcedOwnerEcho: the same situation but with ToOwner set — the
// response must flow even with zero tokens, carrying the activation.
func TestForcedOwnerEcho(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	node := c.nodes[2]
	node.Handle(c.eng.Now(), &msg.Message{
		Type: msg.Fwd, Addr: a, Src: 3, Dst: 2, Requester: 1,
		IsWrite: true, ToOwner: true, Activated: true, Seq: 42,
	})
	c.run(t)
	if got := c.net.Stats.MsgsByClass[msg.ClassAck]; got != 1 {
		t.Fatalf("owner-targeted forward produced %d acks, want 1", got)
	}
}

// TestWaitersReplayAfterRetire: accesses queued behind an outstanding
// MSHR replay once it retires, including a write queued behind a read.
func TestWaitersReplayAfterRetire(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	// Make node 1 the owner so node 0's read is a sharing miss.
	c.access(1, a, true)
	c.run(t)

	doneRead := c.access(0, a, false)
	doneWrite := new(bool)
	// Queue a write behind the in-flight read.
	c.nodes[0].Access(a, true, func() { *doneWrite = true })
	c.run(t)
	if !*doneRead || !*doneWrite {
		t.Fatalf("read=%v write=%v", *doneRead, *doneWrite)
	}
	if st := c.nodes[0].L2.Lookup(a).Tok.ToMOESI(4); st != token.M {
		t.Fatalf("final state %v, want M", st)
	}
	c.checkConservation(t)
}

// TestTenureTimerStopsAfterRetire: once a request deactivates, its timer
// must not fire and discard the now-tenured tokens.
func TestTenureTimerStopsAfterRetire(t *testing.T) {
	c := newCluster(4, protocol.Params{})
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)
	before := c.nodes[0].St.TenureTimeouts
	// Run far past any timeout.
	c.eng.After(100000, event.Func(func(event.Time) {}))
	c.run(t)
	if c.nodes[0].St.TenureTimeouts != before {
		t.Fatal("tenure timer fired after deactivation")
	}
	if l := c.nodes[0].L2.Lookup(a); l == nil || !l.Tok.CanWrite(4) {
		t.Fatal("tenured tokens were discarded")
	}
}

// TestNonAdaptiveDirectsAreGuaranteed: PATCH-ALL-NONADAPTIVE's direct
// requests travel as normal traffic and are never dropped.
func TestNonAdaptiveDirectsAreGuaranteed(t *testing.T) {
	c := newCluster(4, protocol.Params{Variant: predictor.VariantAllNonAdaptive})
	a := addrHomedAt(c.env, 3)
	c.access(0, a, true)
	c.run(t)
	c.access(1, a, false)
	c.run(t)
	if c.net.Stats.Dropped != 0 {
		t.Fatalf("non-adaptive direct requests dropped: %d", c.net.Stats.Dropped)
	}
	if c.net.Stats.MsgsByClass[msg.ClassDirectReq] == 0 {
		t.Fatal("no direct requests sent")
	}
}
