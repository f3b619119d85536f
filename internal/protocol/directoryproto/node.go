// Package directoryproto implements DIRECTORY, the paper's baseline: a
// blocking MOESI+F directory protocol in the style of the GEMS
// distribution. Races are resolved without nacks by a busy/active state
// at the home; the arrival order at the home unambiguously determines the
// service order of racing requests (§5.1). Ownership transfers to the
// most recent requester on both read and write misses, the F state keeps
// clean data in caches, E avoids upgrade misses to unshared data (without
// silent E eviction), and a migratory-sharing optimisation converts reads
// to migratory blocks into exclusive transfers.
package directoryproto

import (
	"fmt"

	"patch/internal/addrmap"
	"patch/internal/cache"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/token"
)

// mshr tracks one outstanding miss.
type mshr struct {
	protocol.MSHR
	migratory bool // completed via a confirmed migratory conversion
	hasData   bool
	acksWant  int // -1 until the data/ack-count response announces it
	acksGot   int
}

// wbEntry is a writeback buffer slot: the evicted owner line is retained
// (and can service forwards) until the home acknowledges the writeback.
type wbEntry struct {
	dirty   bool
	written bool
	version uint64
}

// Node is one core's DIRECTORY controller plus the home-directory slice
// for addresses interleaved to it.
type Node struct {
	protocol.Base
	mshrs protocol.MSHRs[mshr, *mshr]

	// wb is the writeback buffer, keyed by block. A small side table
	// with frequent insert/delete churn, so it lives in an addrmap (a
	// few array probes, deterministic iteration, Clear-able for reuse)
	// rather than a Go map.
	wb addrmap.Map[wbEntry]
}

// New creates a DIRECTORY node; it uses only p's sharer encoding.
func New(id msg.NodeID, env *protocol.Env, p protocol.Params) *Node {
	n := &Node{Base: protocol.NewBase(id, env, p.Enc, 0)}
	n.Bind(n, &n.mshrs, n.evict, n.homeReceive)
	return n
}

// Reset implements protocol.Node.
func (n *Node) Reset(p protocol.Params) {
	n.ResetBase(p.Enc, 0)
	n.wb.Clear()
}

// Quiesced implements protocol.Node.
func (n *Node) Quiesced() bool {
	return n.wb.Len() == 0 && n.Base.Quiesced()
}

// Access implements protocol.Node.
func (n *Node) Access(addr msg.Addr, isWrite bool, done func()) {
	line := n.AccessL2(addr, isWrite)
	if line != nil && n.sufficient(line, isWrite) {
		if isWrite {
			if line.MOESI == token.E {
				line.MOESI = token.M // silent E->M upgrade
			}
			line.Written = true
			line.Version++
		}
		n.Hit(addr, isWrite, line.Version, done)
		return
	}
	// Miss. If an MSHR for this block is already outstanding, queue
	// behind it and retry on retirement.
	if m := n.mshrs.Get(addr); m != nil {
		m.Wait(isWrite, done)
		return
	}
	n.St.Misses++
	m := n.mshrs.Acquire(addr, isWrite, done)
	m.acksWant = -1
	n.mshrs.Add(m)

	t := msg.GetS
	if isWrite {
		t = msg.GetM
		if line != nil && line.MOESI != token.I && line.MOESI != token.S {
			// Owner states (O/F): upgrade in place.
			t = msg.Upg
			n.St.UpgradeMisses++
		}
	}
	n.Send(n.Msg(msg.Message{Type: t, Addr: addr, Dst: n.Env.HomeOf(addr), Requester: n.ID, IsWrite: isWrite}))
}

func (n *Node) sufficient(l *cache.Line, isWrite bool) bool {
	if isWrite {
		return l.MOESI == token.M || l.MOESI == token.E
	}
	return l.MOESI != token.I
}

// Handle implements protocol.Node.
func (n *Node) Handle(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM, msg.Upg, msg.PutM, msg.PutClean:
		n.HomeDefer(m)
	case msg.Deactivate:
		n.homeDeactivate(now, m)
	case msg.Fwd:
		n.cacheFwd(now, m)
	case msg.Data:
		n.cacheData(now, m)
	case msg.Ack:
		n.cacheAck(now, m)
	case msg.AckCount:
		n.cacheAckCount(now, m)
	case msg.PutAck:
		n.wb.Delete(m.Addr)
	default:
		panic(fmt.Sprintf("directoryproto: node %d: unexpected %v", n.ID, m))
	}
}

// ---------------------------------------------------------------------------
// Cache side.

// cacheData handles the data response for an outstanding miss.
func (n *Node) cacheData(now event.Time, m *msg.Message) {
	ms := n.mshrs.Get(m.Addr)
	if ms == nil {
		panic(fmt.Sprintf("directoryproto: node %d: data with no MSHR: %v", n.ID, m))
	}
	ms.hasData = true
	if m.AcksExpected >= 0 {
		ms.acksWant = m.AcksExpected
	}
	if m.Migratory {
		ms.migratory = true
	}
	n.ObserveRTT(now - ms.Issued)
	line := n.InstallLine(m.Addr)
	if m.Version > line.Version {
		line.Version = m.Version
	}
	// A write miss leaves the line's state alone: invalidation acks may
	// still be outstanding, so the line becomes writable only when
	// maybeComplete retires the miss.
	if !ms.IsWrite {
		switch {
		case m.Migratory || (m.Exclusive && m.OwnerDirty):
			line.MOESI = token.M
			n.St.MigratoryUpgrades++
		case m.Exclusive:
			line.MOESI = token.E
		case m.OwnerDirty:
			line.MOESI = token.O
		default:
			line.MOESI = token.F
		}
	}
	if m.Src != n.Env.HomeOf(m.Addr) {
		n.St.SharingMisses++
	} else {
		n.St.MemoryMisses++
	}
	n.maybeComplete(now, ms)
}

func (n *Node) cacheAck(now event.Time, m *msg.Message) {
	ms := n.mshrs.Get(m.Addr)
	if ms == nil {
		// A stale invalidation ack for a miss that was already satisfied
		// cannot occur in DIRECTORY (acks are counted before completion),
		// so treat it as a protocol bug.
		panic(fmt.Sprintf("directoryproto: node %d: ack with no MSHR: %v", n.ID, m))
	}
	ms.acksGot++
	n.maybeComplete(now, ms)
}

// cacheAckCount is the home's upgrade grant: the requester keeps its data
// and now knows how many invalidation acks to await.
func (n *Node) cacheAckCount(now event.Time, m *msg.Message) {
	ms := n.mshrs.Get(m.Addr)
	if ms == nil {
		panic(fmt.Sprintf("directoryproto: node %d: ackcount with no MSHR: %v", n.ID, m))
	}
	ms.hasData = true
	ms.acksWant = m.AcksExpected
	n.ObserveRTT(now - ms.Issued)
	n.maybeComplete(now, ms)
}

func (n *Node) maybeComplete(now event.Time, ms *mshr) {
	if !ms.hasData || ms.acksWant < 0 || ms.acksGot < ms.acksWant {
		return
	}
	line := n.L2.Lookup(ms.Addr)
	if line == nil {
		panic("directoryproto: completing miss without a line")
	}
	if ms.IsWrite {
		line.MOESI = token.M
		line.Written = true
		line.Version++
	}
	n.ObservePerform(ms.Addr, ms.IsWrite, line.Version)
	n.TouchL1(ms.Addr)
	n.St.MissLatencySum += uint64(now - ms.Issued)
	n.Send(n.Msg(msg.Message{
		Type: msg.Deactivate, Addr: ms.Addr, Dst: n.Env.HomeOf(ms.Addr),
		Requester: n.ID, Migratory: ms.migratory,
	}))
	ms.Done()
	n.mshrs.Release(ms)
}

// evict performs the victim writeback InstallLine requests: owner
// states write back through the writeback buffer, shared copies drop
// silently.
func (n *Node) evict(l cache.Line) {
	n.InvalidateL1(l.Addr)
	switch l.MOESI {
	case token.M, token.O:
		n.St.WritebacksDirty++
		*n.wb.Ptr(l.Addr) = wbEntry{dirty: true, written: l.Written, version: l.Version}
		n.Send(n.Msg(msg.Message{Type: msg.PutM, Addr: l.Addr, Dst: n.Env.HomeOf(l.Addr), Requester: n.ID, HasData: true, Version: l.Version}))
	case token.E, token.F:
		n.St.WritebacksClean++
		*n.wb.Ptr(l.Addr) = wbEntry{dirty: false, version: l.Version}
		n.Send(n.Msg(msg.Message{Type: msg.PutClean, Addr: l.Addr, Dst: n.Env.HomeOf(l.Addr), Requester: n.ID}))
	case token.S:
		// Silent eviction of shared blocks: the directory's sharer bit
		// goes stale, producing the unnecessary acks §7 analyses.
	}
}

// cacheFwd services a request forwarded by the home: an invalidation to a
// sharer, or a read/write forward to the owner.
func (n *Node) cacheFwd(now event.Time, m *msg.Message) {
	line := n.L2.Lookup(m.Addr)
	if m.IsWrite && !m.ToOwner {
		// Invalidation to a (possibly stale) sharer: DIRECTORY sharers
		// always acknowledge, present or not (§7's scalability cost).
		if line != nil {
			n.DropLine(line)
		}
		n.Send(n.Msg(msg.Message{Type: msg.Ack, Addr: m.Addr, Dst: m.Requester, Requester: m.Requester}))
		return
	}
	// Owner forward.
	dirty, written := false, false
	var version uint64
	if line == nil {
		w, ok := n.wb.Get(m.Addr)
		if !ok {
			panic(fmt.Sprintf("directoryproto: node %d: owner forward but no line or wb: %v", n.ID, m))
		}
		dirty, written, version = w.dirty, w.written, w.version
		n.wb.Delete(m.Addr) // home will see a stale writeback and drop it
	} else {
		dirty = line.MOESI == token.M || line.MOESI == token.O
		written = line.Written
		version = line.Version
	}
	resp := n.Msg(msg.Message{
		Type: msg.Data, Addr: m.Addr, Dst: m.Requester, Requester: m.Requester,
		HasData: true, Owner: true, OwnerDirty: dirty,
		AcksExpected: m.AcksExpected, Version: version,
	})
	// A migratory conversion only proceeds if this owner actually wrote
	// the block since acquiring it; otherwise the block is not migrating
	// and the plain ownership transfer tells the home to clear its mark.
	if m.IsWrite || (m.Migratory && written) {
		resp.Exclusive = true
		resp.Migratory = m.Migratory
		if line != nil {
			n.DropLine(line)
		}
	} else if line != nil {
		line.MOESI = token.S // ownership moves to the reader
	}
	n.Send(resp)
}
