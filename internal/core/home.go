package core

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/token"
)

// homeLookup dispatches a home-bound message once its directory lookup
// (protocol.Base.HomeDefer) completes.
func (n *Node) homeLookup(now event.Time, m *msg.Message) {
	switch m.Type {
	case msg.GetS, msg.GetM:
		n.homeReceive(now, m)
	default:
		n.homeTokens(now, m)
	}
}

// homeReceive accepts indirect requests at the home (after the lookup
// delay), applying the per-block blocking discipline PATCH inherits
// from DIRECTORY (one active request per block; arrival order at the
// home decides the service order of races).
func (n *Node) homeReceive(now event.Time, m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	if e.Busy {
		e.Queue = append(e.Queue, m.Detached())
		return
	}
	n.homeActivate(now, e, m)
}

// homeTokens receives tokens flowing back to the home: writebacks and
// token-tenure discards. While a request is active the home redirects
// every arriving token to the active requester (Rule #5); otherwise the
// tokens are absorbed into memory, with the owner token set clean on
// arrival (Rule #1).
func (n *Node) homeTokens(now event.Time, m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	if m.Type != msg.TokenReturn {
		// A full eviction: the evictor keeps nothing.
		e.Sharers.Remove(m.Src)
		if e.Owner == m.Src {
			e.Owner = directory.HomeOwner
		}
	}
	if e.Busy {
		n.redirect(e, m)
		return
	}
	e.AbsorbTokens(m)
}

// redirect funnels arriving tokens to the active requester. A clean
// owner token is joined with data fetched from memory (the requester
// needs the block; a dirty owner already travels with data by Rule #4).
func (n *Node) redirect(e *directory.Entry, m *msg.Message) {
	out := n.Msg(msg.Message{
		Type: msg.Redirect, Addr: e.Addr, Dst: e.Active, Requester: e.Active,
		Activated: true, Seq: e.ActiveSeq,
	})
	withData := m.HasData
	out.Version = m.Version
	delay := event.Time(0)
	if m.Owner && !m.HasData {
		withData = true // clean owner: supply the memory copy
		out.Version = e.MemVersion
		delay = event.Time(n.Home().DRAMLatency)
	}
	token.Attach(out, m.Tokens, m.Owner, m.OwnerDirty, withData)
	if delay > 0 {
		n.SendAfter(delay, out)
	} else {
		n.Send(out)
	}
}

// homeActivate designates the request as the block's active request
// (Rule #1a) and forwards it to a superset of the caches holding tenured
// tokens (Rule #1b): the exact owner plus the (possibly inexact) sharer
// set. Every forwarded message carries the activation bit, which
// responders echo to the requester; if no message of the activation
// could possibly echo it (no home tokens, no forward target), the home
// notifies the requester explicitly — this is the paper's small
// "activation" traffic (e.g. upgrade misses by the current owner).
func (n *Node) homeActivate(now event.Time, e *directory.Entry, m *msg.Message) {
	e.Busy = true
	e.Active = m.Requester
	e.ActiveSeq = m.Seq
	r := m.Requester

	// Migratory-sharing detection. Unlike DIRECTORY, a conversion needs
	// no sharer check: if the owner lacks the full token count it
	// degrades to a plain ownership transfer, with token counting
	// keeping everyone safe.
	migratory := false
	if m.IsWrite {
		e.NoteWrite(r)
	} else {
		migratory = e.MigratoryRead(r)
		if migratory {
			n.St.MigratoryUpgrades++
		}
		e.NoteRead(r, migratory)
	}

	// Directory update committed at deactivation. Reads (including
	// migratory conversions) keep the previous owner in the sharer set:
	// it may retain tenured tokens, and the set must stay a superset of
	// tenured holders (Rule #1b).
	if m.IsWrite {
		e.Commit = directory.Commit{Kind: directory.CommitWrite, Req: r}
	} else {
		e.Commit = directory.Commit{Kind: directory.CommitRead, Req: r, Prev: e.Owner}
	}

	actCarrier := false

	// Home-held tokens flow to the requester (Rule #1a). A read is
	// exclusive, and takes everything, only when the home holds the
	// owner token, the directory records no cache as owner and none as
	// a sharer. The owner token comes with data from DRAM.
	if !e.Tok.Zero() {
		exclusive := !m.IsWrite && e.Tok.Owner && e.Owner == directory.HomeOwner && e.Sharers.Count() == 0
		if tokens, owner := e.Tok.Grant(m.IsWrite, exclusive); tokens > 0 {
			grant := n.Msg(msg.Message{Type: msg.Ack, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq})
			token.Attach(grant, tokens, owner, false, owner)
			if owner {
				grant.Type = msg.Data
				grant.Version = e.MemVersion
				n.SendAfter(event.Time(n.Home().DRAMLatency), grant)
			} else {
				n.Send(grant)
			}
			actCarrier = true
		}
	}

	// Forward to the owner (always answered, so it carries the bit).
	if e.Owner != directory.HomeOwner && e.Owner != r {
		n.Send(n.Msg(msg.Message{
			Type: msg.Fwd, Addr: e.Addr, Dst: e.Owner, Requester: r,
			ToOwner: true, IsWrite: m.IsWrite, Migratory: migratory, Activated: true, Seq: e.ActiveSeq,
		}))
		actCarrier = true
	}

	// Invalidation-style forwards to the sharer superset (writes only).
	// Only token holders answer: ack elision (§7).
	if m.IsWrite {
		if targets := n.InvalidationTargets(e, r); len(targets) > 0 {
			n.Multicast(n.Msg(msg.Message{
				Type: msg.Fwd, Addr: e.Addr, Requester: r, IsWrite: true, Activated: true, Seq: e.ActiveSeq,
			}), targets)
		}
	}

	if !actCarrier {
		n.Send(n.Msg(msg.Message{Type: msg.Activation, Addr: e.Addr, Dst: r, Requester: r, Activated: true, Seq: e.ActiveSeq}))
	}
}

// homeDeactivate commits the active transaction and services the queue.
func (n *Node) homeDeactivate(now event.Time, m *msg.Message) {
	e := n.Home().Entry(m.Addr)
	if !e.Busy || e.Active != m.Requester || e.ActiveSeq != m.Seq {
		panic(fmt.Sprintf("core: home %d: spurious deactivate %v", n.ID, m))
	}
	e.Deactivate(m.Migratory)
	e.Busy = false
	if len(e.Queue) > 0 {
		next := e.PopQueue()
		n.homeActivate(now, e, &next)
	}
}
