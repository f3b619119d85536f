package directoryproto

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
)

// homeReceive accepts requests and writebacks at the home node (after
// the lookup delay), applying the per-block blocking discipline.
func (n *Node) homeReceive(now event.Time, m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	switch m.Type {
	case msg.PutM, msg.PutClean:
		if e.Busy {
			if e.AwaitingWB && m.Src == e.Active {
				// The writeback the active transaction is stalled on:
				// drain it, then re-service the recorded request.
				n.homeWriteback(e, m)
				e.AwaitingWB = false
				n.homeService(now, e, e.ResumeReq, e.ResumeType)
				return
			}
			e.Queue = append(e.Queue, m.Detached())
			return
		}
		n.homeWriteback(e, m)
	default:
		if e.Busy {
			e.Queue = append(e.Queue, m.Detached())
			return
		}
		n.homeActivate(now, e, m)
	}
}

// homeWriteback retires a writeback: if the writer is still the owner the
// block returns to memory; otherwise ownership already moved on and the
// writeback is stale.
func (n *Node) homeWriteback(e *directory.Entry, m *msg.Message) {
	stale := e.Owner != m.Src
	if !stale {
		e.Owner = directory.HomeOwner
		if m.HasData && m.Version > e.MemVersion {
			e.MemVersion = m.Version
		}
		e.Sharers.Remove(m.Src)
	}
	n.Send(n.Msg(msg.Message{Type: msg.PutAck, Addr: m.Addr, Dst: m.Src, Requester: m.Src, Stale: stale}))
}

// homeActivate begins servicing one request: the block becomes busy and
// stays busy until the requester's deactivation commits the new state.
func (n *Node) homeActivate(now event.Time, e *directory.Entry, m *msg.Message) {
	e.Busy = true
	e.Active = m.Requester
	r := m.Requester

	// If the home still believes the requester owns the block (and this
	// is not an in-place upgrade), the requester must have evicted it:
	// its writeback is in flight or already queued. Drain it first so the
	// request can be serviced from memory. Servicing may thus run later;
	// the entry records the request's fields (not the pooled message).
	if e.Owner == r && m.Type != msg.Upg {
		if wb, ok := n.takeQueuedWriteback(e, r); ok {
			n.homeWriteback(e, &wb)
			n.homeService(now, e, r, m.Type)
			return
		}
		e.AwaitingWB = true
		e.ResumeReq = r
		e.ResumeType = m.Type
		return
	}
	n.homeService(now, e, r, m.Type)
}

// homeService dispatches an activated request to its handler.
func (n *Node) homeService(now event.Time, e *directory.Entry, r msg.NodeID, reqType msg.Type) {
	switch reqType {
	case msg.GetS:
		n.homeGetS(now, e, r)
	case msg.GetM:
		n.homeGetM(e, r)
	case msg.Upg:
		if e.Owner == r {
			n.homeUpg(e, r)
		} else {
			// The upgrader lost ownership to an earlier racing
			// request; service as a full write miss.
			n.homeGetM(e, r)
		}
	default:
		panic(fmt.Sprintf("directoryproto: home %d: cannot activate %v from %d", n.ID, reqType, r))
	}
}

// takeQueuedWriteback removes and returns a queued writeback from src.
func (n *Node) takeQueuedWriteback(e *directory.Entry, src msg.NodeID) (msg.Message, bool) {
	for i, q := range e.Queue {
		if (q.Type == msg.PutM || q.Type == msg.PutClean) && q.Src == src {
			e.Queue = append(e.Queue[:i], e.Queue[i+1:]...)
			return q, true
		}
	}
	return msg.Message{}, false
}

func (n *Node) homeGetS(now event.Time, e *directory.Entry, r msg.NodeID) {
	// Migratory detection. Unlike PATCH, a conversion also needs the
	// owner to hold the only recorded copy: the exclusive transfer
	// invalidates no sharer.
	migratory := e.MigratoryRead(r) && len(n.InvalidationTargets(e, r)) == 0
	if migratory {
		n.St.MigratoryUpgrades++
	}
	e.NoteRead(r, migratory)

	if e.Owner == directory.HomeOwner {
		excl := e.Sharers.Count() == 0
		e.Commit = directory.Commit{Kind: directory.CommitRead, Req: r, Prev: directory.HomeOwner}
		n.SendAfter(event.Time(n.Home().DRAMLatency), n.Msg(msg.Message{
			Type: msg.Data, Addr: e.Addr, Dst: r, Requester: r,
			HasData: true, Owner: true, Exclusive: excl, AcksExpected: 0,
			Version: e.MemVersion,
		}))
		return
	}
	owner := e.Owner
	if migratory {
		// Migratory optimisation: ask the owner for an exclusive dirty
		// copy. The owner declines if it never wrote the block, keeping
		// an S copy, so the commit depends on the reported outcome.
		e.Commit = directory.Commit{Kind: directory.CommitMigratory, Req: r, Prev: e.Owner}
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: owner, Requester: r,
			ToOwner: true, Migratory: true, AcksExpected: 0,
		}))
		return
	}
	e.Commit = directory.Commit{Kind: directory.CommitRead, Req: r, Prev: e.Owner}
	n.Send(n.Msg(msg.Message{
		Type: msg.Fwd, Addr: e.Addr, Dst: owner, Requester: r,
		ToOwner: true, AcksExpected: 0,
	}))
}

func (n *Node) homeGetM(e *directory.Entry, r msg.NodeID) {
	e.NoteWrite(r)
	sharers := n.InvalidationTargets(e, r)
	acks := len(sharers)
	e.Commit = directory.Commit{Kind: directory.CommitWrite, Req: r}
	if e.Owner == directory.HomeOwner {
		n.SendAfter(event.Time(n.Home().DRAMLatency), n.Msg(msg.Message{
			Type: msg.Data, Addr: e.Addr, Dst: r, Requester: r,
			HasData: true, Owner: true, Exclusive: acks == 0, AcksExpected: acks,
			Version: e.MemVersion,
		}))
	} else {
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: e.Owner, Requester: r,
			ToOwner: true, IsWrite: true, AcksExpected: acks,
		}))
	}
	if acks > 0 {
		n.Multicast(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true,
		}), sharers)
	}
}

func (n *Node) homeUpg(e *directory.Entry, r msg.NodeID) {
	// The migratory hand-off usually reaches the home as an upgrade
	// (ownership moved to the reader with its GetS), so the detector
	// runs here as well as in homeGetM.
	e.NoteWrite(r)
	sharers := n.InvalidationTargets(e, r)
	acks := len(sharers)
	e.Commit = directory.Commit{Kind: directory.CommitWrite, Req: r}
	n.Send(n.Msg(msg.Message{Type: msg.AckCount, Addr: e.Addr, Dst: r, Requester: r, AcksExpected: acks}))
	if acks > 0 {
		n.Multicast(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true,
		}), sharers)
	}
}

// homeDeactivate commits the active transaction's directory update and
// services the next queued request or writeback.
func (n *Node) homeDeactivate(now event.Time, m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	if !e.Busy || e.Active != m.Requester {
		panic(fmt.Sprintf("directoryproto: home %d: spurious deactivate %v", n.ID, m))
	}
	// The owner reported, via the requester, whether a migratory
	// conversion actually happened.
	e.Deactivate(m.Migratory)
	e.Busy = false
	e.Active = 0
	n.drainQueue(now, e)
}

func (n *Node) drainQueue(now event.Time, e *directory.Entry) {
	for len(e.Queue) > 0 && !e.Busy {
		next := e.PopQueue()
		switch next.Type {
		case msg.PutM, msg.PutClean:
			n.homeWriteback(e, &next)
		default:
			n.homeActivate(now, e, &next)
		}
	}
}
