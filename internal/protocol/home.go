package protocol

import (
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
)

// parkedTask holds a message off the wire for a fixed delay: a delayed
// send (SendAfter) or a delivered home message waiting out the
// directory lookup (HomeDefer). Tasks are pooled, so the home paths
// schedule no per-message closures.
type parkedTask struct {
	b    *Base
	m    *msg.Message
	due  event.Time
	pos  int  // index in b.parked, maintained by swap-removal
	home bool // dispatch to the home (HomeDefer) rather than send
}

// Fire implements event.Task.
func (t *parkedTask) Fire(now event.Time) {
	b, m, home := t.b, t.m, t.home
	t.m = nil
	b.unpark(t)
	b.parkFree.Put(t)
	if !home {
		b.Send(m)
		return
	}
	b.homeLookup(now, m)
	b.Env.Net.Release(m)
}

// park holds m for d cycles in a pooled task listed in b.parked.
func (b *Base) park(d event.Time, m *msg.Message, home bool) {
	t := b.parkFree.Get()
	t.b, t.m, t.home = b, m, home
	t.due = b.Env.Eng.Now() + d
	t.pos = len(b.parked)
	b.parked = append(b.parked, t)
	b.Env.Eng.After(d, t)
}

// unpark removes a fired task from the parked list in O(1).
func (b *Base) unpark(t *parkedTask) {
	last := len(b.parked) - 1
	moved := b.parked[last]
	b.parked[t.pos] = moved
	moved.pos = t.pos
	b.parked[last] = nil
	b.parked = b.parked[:last]
}

// SendAfter sends m (stamping the source at fire time, like Send) after
// d cycles, without allocating in steady state. The caller's reference
// to a pooled m is consumed when the send fires.
func (b *Base) SendAfter(d event.Time, m *msg.Message) { b.park(d, m, false) }

// HomeDefer holds a reference to a delivered home-bound message across
// the directory lookup latency, then hands it to the home dispatch
// (Bind) and recycles it. A dispatch that queues the request copies it
// by value, so the pooled message is recycled the moment the lookup
// completes.
func (b *Base) HomeDefer(m *msg.Message) {
	b.Env.Net.Retain(m)
	b.park(DirLatency, m, true)
}

// Parked invokes fn for every message the node holds off the wire,
// with the cycle it leaves the node: delayed sends and home messages
// still in their directory lookup. Token-carrying ones are the reason
// this exists — a home response deducts its tokens from the holder
// when built, and the network auditor stops counting a writeback's
// tokens at delivery, so while parked those tokens are visible neither
// to any holder nor to the auditor; mid-run conservation audits add
// them back through this list. Iteration order is arbitrary but
// deterministic (insertion order perturbed by swap-removal). Callers
// must not retain or mutate the message.
func (b *Base) Parked(fn func(due event.Time, m *msg.Message)) {
	for _, t := range b.parked {
		fn(t.due, t.m)
	}
}

// InvalidationTargets expands the (possibly inexact) sharer encoding
// into the node's scratch buffer, excluding the requester r and the
// owner (which receives its own forward). The result is consumed
// before the buffer's next use.
func (b *Base) InvalidationTargets(e *directory.Entry, r msg.NodeID) []msg.NodeID {
	members := e.Sharers.AppendMembers(b.Scratch[:0], r)
	b.Scratch = members[:0] // retain any growth for the next expansion
	out := members[:0]
	for _, s := range members {
		if s != e.Owner {
			out = append(out, s)
		}
	}
	return out
}
