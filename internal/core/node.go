// Package core implements PATCH (Predictive/Adaptive Token Counting
// Hybrid), the paper's primary contribution: a directory protocol
// augmented with token counting, best-effort direct requests, and the
// token-tenure forward-progress mechanism (Table 3).
//
// The cache side enforces coherence purely by token counting (Table 1):
// a write completes when all T tokens have arrived, a read when valid
// data and at least one token have. Misses issue an indirect request to
// the home plus optional predictive direct requests sent as droppable
// best-effort traffic. Token tenure makes races resolve without
// broadcast: tokens received by a processor that the home has not
// activated are untenured and must be discarded to the home after a
// probationary period (twice the dynamic average round trip), whence the
// home redirects them to the active requester.
package core

import (
	"fmt"

	"patch/internal/cache"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
	"patch/internal/token"
)

// mshr tracks one outstanding PATCH request from issue to deactivation.
// The core is released as soon as tokens suffice (possibly before
// activation); the entry lives on until the home has activated the
// request and the deactivation has been sent.
type mshr struct {
	protocol.MSHR
	seq       uint64
	activated bool
	completed bool // core released
	migratory bool // satisfied by a confirmed migratory conversion
	timer     event.Handle

	// n backs the Fire method: the armed mshr doubles as the tenure
	// timer's event.Task, so re-arming allocates no closure.
	n *Node
}

// Fire implements event.Task: the token-tenure probation expired.
func (m *mshr) Fire(now event.Time) { m.n.tenureTimeout(now, m) }

// Node is one core's PATCH controller plus its home-directory slice.
type Node struct {
	protocol.Base
	cfg   protocol.Params
	pred  *predictor.Predictor
	mshrs protocol.MSHRs[mshr, *mshr]

	// ignoreDirectUntil implements the post-deactivation window during
	// which direct (but not forwarded) requests are ignored (§5.2).
	ignoreDirectUntil map[msg.Addr]event.Time

	// tenureTimers guards unsolicited untenured holdings on lines with no
	// MSHR (late direct-request responses).
	tenureTimers map[msg.Addr]event.Handle

	// seq numbers this node's transactions so that activation
	// notifications match the right request generation.
	seq uint64

	// saFree recycles standalone tenure-timer tasks; with the MSHR table
	// and the pooled tasks in protocol.Base it makes the steady-state
	// miss path allocation-free.
	saFree protocol.FreeList[saTimer]
}

// New creates a PATCH node; p selects the variant.
func New(id msg.NodeID, env *protocol.Env, p protocol.Params) *Node {
	n := &Node{
		Base:              protocol.NewBase(id, env, p.Enc, env.Tokens),
		cfg:               p,
		pred:              predictor.New(p.Policy, id, env.N),
		ignoreDirectUntil: make(map[msg.Addr]event.Time),
		tenureTimers:      make(map[msg.Addr]event.Handle),
	}
	n.L2.Join(env.Holders, int(id))
	n.Bind(n, &n.mshrs, n.EvictTokens, n.homeLookup)
	return n
}

// Reset implements protocol.Node.
func (n *Node) Reset(p protocol.Params) {
	n.ResetBase(p.Enc, n.Env.Tokens)
	n.cfg = p
	n.pred.Reset(p.Policy)
	clear(n.ignoreDirectUntil)
	clear(n.tenureTimers)
	n.seq = 0
}

// Access implements protocol.Node.
func (n *Node) Access(addr msg.Addr, isWrite bool, done func()) {
	line, hit := n.TokenHit(addr, isWrite, done)
	if hit {
		return
	}
	if m := n.mshrs.Get(addr); m != nil {
		m.Wait(isWrite, done)
		return
	}
	n.St.Misses++
	if isWrite && line != nil && !line.Tok.Zero() {
		n.St.UpgradeMisses++
	}
	n.seq++
	m := n.mshrs.Acquire(addr, isWrite, done)
	m.seq, m.n = n.seq, n
	n.mshrs.Add(m)

	// Indirect request through the home: the correctness path.
	t := msg.GetS
	if isWrite {
		t = msg.GetM
	}
	n.Send(n.Msg(msg.Message{Type: t, Addr: addr, Dst: n.Env.HomeOf(addr), Requester: n.ID, IsWrite: isWrite, Seq: m.seq}))

	// Predictive direct requests: pure performance hints.
	if dsts := n.pred.Predict(addr); len(dsts) > 0 {
		dt := msg.DirectGetS
		if isWrite {
			dt = msg.DirectGetM
		}
		n.Multicast(n.Msg(msg.Message{
			Type: dt, Addr: addr, Requester: n.ID, IsWrite: isWrite,
			BestEffort: n.cfg.BestEffort,
		}), dsts)
	}

	// Arm the token-tenure probationary timer (Rule #4).
	n.armTenureTimer(m)
}

// tenurePeriod returns the probationary period (paper: twice the
// dynamic average round trip).
func (n *Node) tenurePeriod() event.Time {
	f := n.cfg.TenureTimeoutFactor
	if f <= 0 {
		return n.Timeout()
	}
	t := event.Time(f * float64(n.Timeout()) / 2)
	if t < 16 {
		t = 16
	}
	return t
}

func (n *Node) armTenureTimer(m *mshr) {
	m.timer.Cancel()
	m.timer = n.Env.Eng.After(n.tenurePeriod(), m)
}

// tenureTimeout fires when the probationary period expires without an
// activation: any tokens held for the block are discarded to the home
// (Rule #4), which will redirect them to the active requester (Rule #5).
func (n *Node) tenureTimeout(now event.Time, m *mshr) {
	if m.activated || n.mshrs.Get(m.Addr) != m {
		return
	}
	if line := n.L2.Lookup(m.Addr); line != nil && !line.Tok.Zero() {
		n.St.TenureTimeouts++
		n.returnTokensHome(line)
	}
	// The request remains outstanding at the home; tokens may arrive
	// again before activation, so keep the probation running.
	n.armTenureTimer(m)
}

// returnTokensHome sends a line's entire holding back to the home.
func (n *Node) returnTokensHome(line *cache.Line) {
	tokens, owner, dirty := line.Tok.TakeAll()
	ret := n.Msg(msg.Message{
		Type: msg.TokenReturn, Addr: line.Addr, Dst: n.Env.HomeOf(line.Addr), Requester: n.ID,
		Version: line.Version,
	})
	token.Attach(ret, tokens, owner, dirty, dirty) // Rule #4: dirty owner travels with data
	n.DropLine(line)
	n.Send(ret)
}

// Handle implements protocol.Node.
func (n *Node) Handle(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM, msg.PutM, msg.PutClean, msg.TokenReturn:
		n.HomeDefer(m)
	case msg.Deactivate:
		n.homeDeactivate(now, m)
	case msg.Fwd:
		n.cacheFwd(now, m)
	case msg.DirectGetS, msg.DirectGetM:
		n.cacheDirect(now, m)
	case msg.Data, msg.Ack, msg.Redirect, msg.Activation:
		n.cacheResponse(now, m)
	default:
		panic(fmt.Sprintf("core: PATCH node %d: unexpected %v", n.ID, m))
	}
}

// ---------------------------------------------------------------------------
// Cache side.

// cacheResponse folds an incoming token/data/activation message into the
// line and the outstanding request, applying the token-tenure arrival,
// promotion and deactivation rules.
func (n *Node) cacheResponse(now event.Time, m *msg.Message) {
	ms := n.mshrs.Get(m.Addr)
	if m.Tokens > 0 || m.Owner {
		n.pred.ObserveResponse(m.Addr, m.Src)
	}

	var line *cache.Line
	if m.Tokens > 0 || m.Owner {
		line = n.ReceiveTokens(m)
	} else {
		line = n.L2.Lookup(m.Addr)
	}

	if ms == nil {
		// Unsolicited tokens (a straggling direct-request response after
		// the miss already deactivated): they arrive untenured (Rule #2)
		// and sit out a probationary period on a standalone timer.
		if line != nil && !line.Tok.Zero() {
			line.Untenured = true
			line.UntenuredAt = now
			n.armStandaloneTimer(m.Addr)
		}
		return
	}

	n.NoteResponse(&ms.MSHR, now, m)
	if m.Activated && m.Seq == ms.seq && !ms.activated {
		ms.activated = true
		ms.timer.Cancel()
	}
	if m.Migratory {
		ms.migratory = true
	}
	if line != nil && !line.Tok.Zero() {
		if ms.activated {
			// Promotion Rule (#3): the active requester tenures all
			// tokens it possesses or receives.
			line.Untenured = false
		} else {
			line.Untenured = true
			line.UntenuredAt = now
		}
	}
	n.progress(now, ms)
}

// progress releases the core and/or deactivates when the token-counting
// completion conditions hold.
func (n *Node) progress(now event.Time, ms *mshr) {
	line := n.L2.Lookup(ms.Addr)
	satisfied := line != nil && n.TokensSuffice(line, ms.IsWrite)
	if satisfied && !ms.completed {
		ms.completed = true
		n.PerformMiss(&ms.MSHR, line, now)
		ms.Done()
	}
	// Deactivation Rule (#7): once active with sufficient tenured
	// tokens, give up active status.
	if satisfied && ms.activated {
		line.Untenured = false
		n.retire(now, ms)
	}
}

// retire sends the deactivation, closes and recycles the MSHR, opens
// the post-deactivation direct-request ignore window, and replays any
// accesses that queued behind the miss.
func (n *Node) retire(now event.Time, ms *mshr) {
	ms.timer.Cancel()
	if !n.cfg.NoDeactWindow {
		n.ignoreDirectUntil[ms.Addr] = now + n.tenurePeriod()
	}
	n.Send(n.Msg(msg.Message{
		Type: msg.Deactivate, Addr: ms.Addr, Dst: n.Env.HomeOf(ms.Addr),
		Requester: n.ID, Seq: ms.seq, Migratory: ms.migratory,
	}))
	n.mshrs.Release(ms)
}

// saTimer is the pooled standalone tenure timer: a probationary discard
// armed for tokens held on a line with no outstanding request.
type saTimer struct {
	n    *Node
	addr msg.Addr
}

// Fire implements event.Task: the standalone probation expired.
func (t *saTimer) Fire(event.Time) {
	n, addr := t.n, t.addr
	n.saFree.Put(t)
	delete(n.tenureTimers, addr)
	if n.mshrs.Get(addr) != nil {
		return // a newer request now governs the line
	}
	line := n.L2.Lookup(addr)
	if line != nil && line.Untenured && !line.Tok.Zero() {
		n.St.TenureTimeouts++
		n.returnTokensHome(line)
	}
}

// armStandaloneTimer schedules a probationary discard for tokens held on
// a line with no outstanding request.
func (n *Node) armStandaloneTimer(addr msg.Addr) {
	if h, ok := n.tenureTimers[addr]; ok && h.Pending() {
		return
	}
	t := n.saFree.Get()
	t.n = n
	t.addr = addr
	n.tenureTimers[addr] = n.Env.Eng.After(n.tenurePeriod(), t)
}

// cacheFwd services a forwarded request from the home. Forwarded
// requests are never ignored for having a miss outstanding (§5.2), but
// the active requester hoards (Rule #6a) — any forward it sees is a
// stale leftover from a previous activation. Zero-token holders stay
// silent unless they are the directory-designated owner target, whose
// response always flows so the activation bit reaches the requester.
func (n *Node) cacheFwd(now event.Time, m *msg.Message) {
	n.pred.ObserveRequest(m.Addr, m.Requester, m.IsWrite)
	if ms := n.mshrs.Get(m.Addr); ms != nil && ms.activated {
		return // hoard: rule #6a
	}
	line := n.L2.Lookup(m.Addr)
	n.respondToRequest(line, m, true)
}

// cacheDirect services a best-effort direct request, applying the ignore
// rules: outstanding miss (§5.2), untenured holdings (Rule #6c), and the
// post-deactivation window.
func (n *Node) cacheDirect(now event.Time, m *msg.Message) {
	n.pred.ObserveRequest(m.Addr, m.Requester, m.IsWrite || m.Type == msg.DirectGetM)
	// Holding is tested first: most recipients of a broadcast hold
	// nothing, and their L2 answers that from the system's holder index
	// without probing its tags. Every check it overtakes ends in the
	// same ignore; the one thing skipped is the lazy delete of an
	// expired ignore-window entry, which acts as an absent one.
	line := n.L2.Lookup(m.Addr)
	if line == nil || line.Tok.Zero() || line.Untenured {
		n.St.DirectIgnored++
		return
	}
	if n.mshrs.Get(m.Addr) != nil {
		n.St.DirectIgnored++
		return
	}
	if until, ok := n.ignoreDirectUntil[m.Addr]; ok {
		if now < until {
			n.St.DirectIgnored++
			return
		}
		delete(n.ignoreDirectUntil, m.Addr)
	}
	n.St.DirectResponded++
	n.respondToRequest(line, m, false)
}

// respondToRequest answers a forwarded or direct request. A holder of
// tokens gives them up by the shared response rules (a read needs the
// owner token to be answered); the migratory hand-off applies to a
// direct request, whose owner applies the heuristic itself since it
// cannot consult the directory, and to a forward the home's detector
// marked migratory.
func (n *Node) respondToRequest(line *cache.Line, m *msg.Message, fwd bool) {
	write := m.IsWrite || m.Type == msg.DirectGetM
	resp := n.Msg(msg.Message{
		Addr: m.Addr, Dst: m.Requester, Requester: m.Requester,
		Activated: fwd && m.Activated, Seq: m.Seq,
	})
	switch {
	case line != nil && !line.Tok.Zero() && (write || line.Tok.Owner):
		n.GiveTokens(line, resp, write, m.Migratory || !fwd)
	case fwd && m.ToOwner:
		// Directory-designated owner with nothing left: respond anyway so
		// the activation bit is delivered (zero-token ack; the paper's
		// ack elision applies to sharers, the owner is a single node).
		resp.Type = msg.Ack
	default:
		// Zero-token sharer: ack elision — send nothing. This is the
		// property that lets PATCH out-scale DIRECTORY with inexact
		// sharer encodings (§7). The elided response goes straight back
		// to the pool.
		n.Env.Net.Release(resp)
		return
	}
	n.Send(resp)
}
