// Package tokenb implements TokenB, broadcast-based token coherence
// [Martin et al., ISCA 2003], the paper's performance comparator for
// PATCH-ALL. Requesters broadcast transient requests to all nodes on the
// unordered interconnect; coherence safety comes from token counting;
// forward progress comes from reissued requests escalating to persistent
// requests with centralised per-home arbitration — the broadcast-heavy
// mechanism token tenure replaces (Table 4).
package tokenb

import (
	"fmt"

	"patch/internal/addrmap"
	"patch/internal/cache"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/token"
)

// MaxRetries is the number of reissued transient requests before a
// requester escalates to a persistent request.
const MaxRetries = 3

type mshr struct {
	protocol.MSHR
	retries    int
	persistent bool // escalated; awaiting persistent completion
	timer      event.Handle

	// n backs the Fire method: the mshr doubles as its reissue timer's
	// event.Task, so re-arming allocates no closure.
	n *Node
}

// Fire implements event.Task: the transient-request timeout expired.
func (m *mshr) Fire(now event.Time) { m.n.timeout(now, m) }

// arbiterState is the per-block persistent-request arbitration at the
// home: one active persistent requester, the rest queued FIFO.
type arbiterState struct {
	active msg.NodeID
	busy   bool
	queue  []msg.NodeID
}

// Node is one core's TokenB controller plus the home memory (token
// store, its home slice) and persistent-request arbiter for its address
// slice.
type Node struct {
	protocol.Base
	mshrs protocol.MSHRs[mshr, *mshr]

	// persistentTable is this node's view of active persistent requests
	// (every node maintains one, as the paper notes in §2).
	persistentTable map[msg.Addr]msg.NodeID

	// arbiters holds the per-block arbitration state for blocks homed
	// here. Arbiter entries are created on first escalation and never
	// deleted, the insert-only access pattern addrmap serves with a few
	// array probes and deterministic Clear-able storage.
	arbiters addrmap.Map[arbiterState]
}

// New creates a TokenB node. TokenB has no sharer state or variants, so
// it ignores p: its home slice is a memory token store, kept in a
// full-map directory whose sharer state goes unused.
func New(id msg.NodeID, env *protocol.Env, _ protocol.Params) *Node {
	n := &Node{
		Base:            protocol.NewBase(id, env, directory.FullMap(env.N), env.Tokens),
		persistentTable: make(map[msg.Addr]msg.NodeID),
	}
	n.L2.Join(env.Holders, int(id))
	n.Bind(n, &n.mshrs, n.EvictTokens, nil)
	return n
}

// Reset implements protocol.Node.
func (n *Node) Reset(protocol.Params) {
	n.ResetBase(directory.FullMap(n.Env.N), n.Env.Tokens)
	clear(n.persistentTable)
	n.arbiters.Clear()
}

// Quiesced implements protocol.Node.
func (n *Node) Quiesced() bool {
	if len(n.persistentTable) != 0 || !n.Base.Quiesced() {
		return false
	}
	quiet := true
	n.arbiters.ForEach(func(_ msg.Addr, a *arbiterState) {
		if a.busy || len(a.queue) != 0 {
			quiet = false
		}
	})
	return quiet
}

// Access implements protocol.Node.
func (n *Node) Access(addr msg.Addr, isWrite bool, done func()) {
	if _, hit := n.TokenHit(addr, isWrite, done); hit {
		return
	}
	if m := n.mshrs.Get(addr); m != nil {
		m.Wait(isWrite, done)
		return
	}
	n.St.Misses++
	m := n.mshrs.Acquire(addr, isWrite, done)
	m.n = n
	n.mshrs.Add(m)
	n.broadcast(m, false)
	n.armTimer(m)
}

// broadcast sends the transient request to every other node (reissues
// are accounted in their own traffic class, as in Figure 5).
func (n *Node) broadcast(m *mshr, reissue bool) {
	t := msg.DirectGetS
	if m.IsWrite {
		t = msg.DirectGetM
	}
	if reissue {
		t = msg.Reissue
	}
	n.Multicast(n.Msg(msg.Message{
		Type: t, Addr: m.Addr, Requester: n.ID, IsWrite: m.IsWrite,
	}), n.OthersExcept())
	// The home's memory controller also sees the request locally when
	// this node is the home. The request is consumed synchronously and
	// never enters the network, so a plain stack value suffices.
	if n.Env.HomeOf(m.Addr) == n.ID {
		local := msg.Message{Type: t, Addr: m.Addr, Src: n.ID, Requester: n.ID, IsWrite: m.IsWrite}
		n.memRespond(&local)
	}
}

func (n *Node) armTimer(m *mshr) {
	m.timer.Cancel()
	m.timer = n.Env.Eng.After(n.Timeout(), m)
}

// timeout reissues a starving transient request, escalating to a
// persistent request after MaxRetries.
func (n *Node) timeout(now event.Time, m *mshr) {
	if n.mshrs.Get(m.Addr) != m || m.persistent {
		return
	}
	if m.retries < MaxRetries {
		m.retries++
		n.St.Reissues++
		n.broadcast(m, true)
		n.armTimer(m)
		return
	}
	m.persistent = true
	n.St.PersistentReqs++
	n.Send(n.Msg(msg.Message{
		Type: msg.PersistentReq, Addr: m.Addr, Dst: n.Env.HomeOf(m.Addr),
		Requester: n.ID, IsWrite: m.IsWrite, Persistent: true,
	}))
}

// Handle implements protocol.Node.
func (n *Node) Handle(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.DirectGetS, msg.DirectGetM, msg.Reissue:
		n.transient(now, m)
	case msg.Data, msg.Ack:
		n.response(now, m)
	case msg.PutM, msg.PutClean:
		n.memTokens(now, m)
	case msg.PersistentReq:
		// Unactivated: a starving requester's escalation to the arbiter.
		// Activated: the arbiter's activation broadcast.
		if !m.Activated {
			if n.Env.HomeOf(m.Addr) != n.ID {
				panic("tokenb: persistent request at a non-home node")
			}
			n.arbiterRequest(m)
		} else {
			n.persistentActivate(now, m)
		}
	case msg.PersistentDeact:
		if !m.Activated {
			if n.Env.HomeOf(m.Addr) != n.ID {
				panic("tokenb: persistent deactivation at a non-home node")
			}
			n.arbiterDeact(m)
		} else {
			delete(n.persistentTable, m.Addr)
		}
	default:
		panic(fmt.Sprintf("tokenb: node %d: unexpected %v", n.ID, m))
	}
}

// transient services an incoming broadcast request: nodes with a miss
// outstanding to the block ignore it (the source of reissues), others
// respond by the token-counting rules.
//
// The cache side tests holding first. Most recipients hold nothing, and
// their L2 answers that from the system's holder index without probing
// its tags. The order changes nothing: a node without tokens returns
// whatever its MSHR and persistent table say, and those two lookups
// have no side effects.
func (n *Node) transient(now event.Time, m *msg.Message) {
	if n.Env.HomeOf(m.Addr) == n.ID {
		n.memRespond(m)
	}
	line := n.L2.Lookup(m.Addr)
	if line == nil || line.Tok.Zero() {
		return
	}
	if n.mshrs.Get(m.Addr) != nil {
		return
	}
	if r, ok := n.persistentTable[m.Addr]; ok && r != m.Requester {
		return // a persistent request outranks transient traffic
	}
	n.respondFromLine(line, m.Requester, m.IsWrite)
}

// respondFromLine transfers tokens to a requester by the shared
// response rules (protocol.Base.GiveTokens): a write takes everything
// and a read moves ownership, except that an owner that wrote the
// block and holds every token hands a reader everything (migratory
// support, as in GEMS TokenB), so the reader's next write hits locally.
func (n *Node) respondFromLine(line *cache.Line, r msg.NodeID, isWrite bool) {
	if !isWrite && !line.Tok.Owner {
		// Non-owner sharers stay silent on reads; checked before the pool
		// acquisition so the hot broadcast path allocates nothing here.
		return
	}
	resp := n.Msg(msg.Message{Addr: line.Addr, Dst: r, Requester: r})
	n.GiveTokens(line, resp, isWrite, true)
	n.Send(resp)
}

// memRespond is the home memory controller answering a broadcast
// request from its token store. Controller occupancy (the same 16-cycle
// lookup every protocol's home pays) precedes the DRAM access, keeping
// the memory path comparable across protocols.
func (n *Node) memRespond(m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	if e.Tok.Zero() {
		return
	}
	if r, ok := n.persistentTable[m.Addr]; ok && r != m.Requester {
		return
	}
	// An unshared block (the home holds every token) is granted whole:
	// the E-grant equivalent.
	tokens, owner := e.Tok.Grant(m.IsWrite, e.Tok.Count == n.Env.Tokens)
	if tokens == 0 {
		return
	}
	resp := n.Msg(msg.Message{Type: msg.Ack, Addr: m.Addr, Dst: m.Requester, Requester: m.Requester, Version: e.MemVersion})
	if owner {
		resp.Type = msg.Data
	}
	token.Attach(resp, tokens, owner, false, owner)
	lat := event.Time(n.Home().LookupLatency)
	if resp.HasData {
		lat += event.Time(n.Home().DRAMLatency)
	}
	n.SendAfter(lat, resp)
}

// response receives tokens at the requester (or forwards them onward if
// a persistent request outranks us).
func (n *Node) response(now event.Time, m *msg.Message) {
	if r, ok := n.persistentTable[m.Addr]; ok && r != n.ID {
		// All components forward tokens to the persistent requester.
		fwd := n.Msg(msg.Message{Type: m.Type, Addr: m.Addr, Dst: r, Requester: r, Version: m.Version})
		token.Attach(fwd, m.Tokens, m.Owner, m.OwnerDirty, m.HasData)
		n.Send(fwd)
		return
	}
	ms := n.mshrs.Get(m.Addr)
	if m.Tokens == 0 && !m.Owner {
		return
	}
	line := n.ReceiveTokens(m)
	if ms == nil {
		return // late straggler; the line simply keeps the tokens
	}
	n.NoteResponse(&ms.MSHR, now, m)
	if !n.TokensSuffice(line, ms.IsWrite) {
		return
	}
	n.PerformMiss(&ms.MSHR, line, now)
	ms.timer.Cancel()
	// Deactivate the persistent request only if our activation has
	// arrived; if it is still in flight, the activation handler notices
	// the retired MSHR and deactivates then.
	if r, ok := n.persistentTable[ms.Addr]; ok && r == n.ID {
		delete(n.persistentTable, ms.Addr)
		n.Send(n.Msg(msg.Message{
			Type: msg.PersistentDeact, Addr: ms.Addr, Dst: n.Env.HomeOf(ms.Addr),
			Requester: n.ID, Persistent: true,
		}))
	}
	ms.Done()
	n.mshrs.Release(ms)
}

// memTokens absorbs writebacks at the home memory (or forwards them to
// an active persistent requester).
func (n *Node) memTokens(now event.Time, m *msg.Message) {
	if r, ok := n.persistentTable[m.Addr]; ok && r != n.ID {
		fwd := n.Msg(msg.Message{Type: msg.Ack, Addr: m.Addr, Dst: r, Requester: r, Version: m.Version})
		withData := m.HasData
		if m.Owner && !withData {
			withData = true // clean owner re-joined with the memory copy
			fwd.Version = n.Home().Entry(m.Addr).MemVersion
		}
		token.Attach(fwd, m.Tokens, m.Owner, m.OwnerDirty, withData)
		if m.Owner {
			fwd.Type = msg.Data
		}
		n.Send(fwd)
		return
	}
	n.Home().Entry(m.Addr).AbsorbTokens(m)
}

// ---------------------------------------------------------------------------
// Persistent-request arbitration (centralised at the home, as in [20]).

// arbiterRequest queues a starving requester; if the block has no active
// persistent request it is activated immediately.
func (n *Node) arbiterRequest(m *msg.Message) {
	a := n.arbiters.Ptr(m.Addr)
	if a.busy {
		a.queue = append(a.queue, m.Requester)
		return
	}
	a.busy = true
	a.active = m.Requester
	n.broadcastActivation(m.Addr, m.Requester)
}

// broadcastActivation tells every node (including this one) who the
// persistent requester is; everyone forwards tokens to it.
func (n *Node) broadcastActivation(addr msg.Addr, r msg.NodeID) {
	act := n.Msg(msg.Message{
		Type: msg.PersistentReq, Addr: addr, Requester: r,
		Persistent: true, Activated: true,
	})
	// Copy the local-delivery view before Multicast consumes the pooled
	// message; the copy is a plain value outside the pool's lifecycle.
	local := act.Detached()
	local.Src = n.ID
	local.Dst = n.ID
	n.Multicast(act, n.OthersExcept())
	n.persistentActivate(n.Env.Eng.Now(), &local)
}

// persistentActivate installs the table entry and flushes local tokens
// to the persistent requester.
func (n *Node) persistentActivate(now event.Time, m *msg.Message) {
	r := m.Requester
	n.persistentTable[m.Addr] = r
	if r == n.ID {
		// Our own activation. If our miss already completed (the race
		// resolved while the escalation was in flight), deactivate at
		// once.
		if n.mshrs.Get(m.Addr) == nil {
			delete(n.persistentTable, m.Addr)
			n.Send(n.Msg(msg.Message{
				Type: msg.PersistentDeact, Addr: m.Addr, Dst: n.Env.HomeOf(m.Addr),
				Requester: n.ID, Persistent: true,
			}))
		}
		return
	}
	if line := n.L2.Lookup(m.Addr); line != nil && !line.Tok.Zero() {
		n.respondFromLine(line, r, true /* surrender everything */)
	}
	if n.Env.HomeOf(m.Addr) == n.ID {
		e := n.Home().Entry(m.Addr)
		if !e.Tok.Zero() {
			tokens, owner, _ := e.Tok.TakeAll()
			resp := n.Msg(msg.Message{Type: msg.Ack, Addr: m.Addr, Dst: r, Requester: r, Version: e.MemVersion})
			if owner {
				resp.Type = msg.Data
			}
			token.Attach(resp, tokens, owner, false, owner)
			n.SendAfter(event.Time(n.Home().DRAMLatency), resp)
		}
	}
}

// arbiterDeact ends the active persistent request and activates the next
// queued one.
func (n *Node) arbiterDeact(m *msg.Message) {
	// The entry must exist (Ptr would silently create one); the pointer
	// stays valid through the body, which never inserts into arbiters.
	if _, ok := n.arbiters.Get(m.Addr); !ok {
		panic(fmt.Sprintf("tokenb: arbiter %d: spurious deactivation %v", n.ID, m))
	}
	a := n.arbiters.Ptr(m.Addr)
	if !a.busy || a.active != m.Requester {
		panic(fmt.Sprintf("tokenb: arbiter %d: spurious deactivation %v", n.ID, m))
	}
	deact := n.Msg(msg.Message{
		Type: msg.PersistentDeact, Addr: m.Addr, Requester: m.Requester,
		Persistent: true, Activated: true,
	})
	n.Multicast(deact, n.OthersExcept())
	delete(n.persistentTable, m.Addr)
	a.busy = false
	a.active = 0
	if len(a.queue) > 0 {
		// Shift rather than re-slice, so the queue's backing array stays
		// anchored and steady-state churn reuses its capacity.
		next := a.queue[0]
		copy(a.queue, a.queue[1:])
		a.queue = a.queue[:len(a.queue)-1]
		a.busy = true
		a.active = next
		n.broadcastActivation(m.Addr, next)
	}
}
