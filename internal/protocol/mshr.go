package protocol

import (
	"sort"

	"patch/internal/event"
	"patch/internal/msg"
)

// MSHR is the per-miss state every backend keeps: the block, the access
// that opened the miss, and the accesses that queued behind it. Each
// backend embeds it in its own MSHR type, next to its protocol fields,
// and keeps those in an MSHRs table.
type MSHR struct {
	Addr    msg.Addr
	IsWrite bool
	Issued  event.Time

	done    func()   // releases the core whose access opened the miss
	waiters []waiter // later accesses to the block, replayed at Release
}

// waiter is an access that arrived while its block's miss was
// outstanding.
type waiter struct {
	isWrite bool
	done    func()
}

func (m *MSHR) shared() *MSHR { return m }

// Wait queues an access behind the outstanding miss; Release replays it.
//
//patch:steadystate
func (m *MSHR) Wait(isWrite bool, done func()) {
	m.waiters = append(m.waiters, waiter{isWrite, done})
}

// Done releases the core whose access opened the miss. Call it once,
// when the access is performed.
func (m *MSHR) Done() {
	m.done()
	m.done = nil
}

// mshrRef is the pointer type of a backend MSHR type T embedding MSHR.
type mshrRef[T any] interface {
	*T
	shared() *MSHR
}

// MSHRs is a node's table of outstanding misses, at most one per block,
// with a free-list that makes the steady-state miss path allocation-free.
// T is the backend's MSHR type, which embeds MSHR. The embedding node
// passes the table to Bind.
type MSHRs[T any, P mshrRef[T]] struct {
	b    *Base
	live map[msg.Addr]P
	free FreeList[T]
}

// mshrTable is the untyped view of an MSHRs table that Base keeps.
type mshrTable interface {
	Len() int
	bind(b *Base)
	busy(addr msg.Addr) bool
	appendDiags(id msg.NodeID, dst []MSHRDiag) []MSHRDiag
	reset()
}

func (t *MSHRs[T, P]) bind(b *Base) {
	t.b = b
	t.live = make(map[msg.Addr]P)
}

// Get returns the block's outstanding miss, or nil.
func (t *MSHRs[T, P]) Get(addr msg.Addr) P { return t.live[addr] }

// Len returns the number of outstanding misses.
func (t *MSHRs[T, P]) Len() int { return len(t.live) }

func (t *MSHRs[T, P]) busy(addr msg.Addr) bool {
	_, ok := t.live[addr]
	return ok
}

// Acquire returns a recycled (or new) MSHR, zeroed but for its retained
// capacity, for a miss on addr issued now by the access (isWrite,
// done). The caller sets its backend fields, then registers it with
// Add.
//
//patch:steadystate
func (t *MSHRs[T, P]) Acquire(addr msg.Addr, isWrite bool, done func()) P {
	m := P(t.free.Get())
	s := m.shared()
	waiters := s.waiters[:0]
	var zero T
	*m = zero
	*s = MSHR{Addr: addr, IsWrite: isWrite, Issued: t.b.Env.Eng.Now(), done: done, waiters: waiters}
	return m
}

// Add registers m as its block's outstanding miss.
//
//patch:steadystate
func (t *MSHRs[T, P]) Add(m P) { t.live[m.shared().Addr] = m }

// Release retires m: the block no longer has a miss outstanding, the
// accesses that queued behind it are replayed a cycle later, and m is
// recycled. The caller must already have released the core (Done) and
// cancelled any timer armed on m.
//
//patch:steadystate
func (t *MSHRs[T, P]) Release(m P) {
	s := m.shared()
	delete(t.live, s.Addr)
	for _, w := range s.waiters {
		t.b.replay(1, s.Addr, w.isWrite, w.done)
	}
	t.recycle(m, s)
}

// recycle returns m, whose embedded MSHR is s, to the free-list,
// dropping callback references so retired closures stay collectable.
//
//patch:steadystate
func (t *MSHRs[T, P]) recycle(m P, s *MSHR) {
	s.done = nil
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	t.free.Put((*T)(m))
}

// reset recycles every outstanding miss. It is empty on a quiesced
// node, and any timer armed on an entry died with the engine's reset.
func (t *MSHRs[T, P]) reset() {
	//lint:allow determinism defensive sweep of a map that is empty on a quiesced node; order cannot matter
	for _, m := range t.live {
		t.recycle(m, m.shared())
	}
	clear(t.live)
}

// appendDiags appends one record per outstanding miss, sorted by
// address so diagnostic dumps are deterministic.
func (t *MSHRs[T, P]) appendDiags(id msg.NodeID, dst []MSHRDiag) []MSHRDiag {
	addrs := make([]msg.Addr, 0, len(t.live))
	for a := range t.live {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s := t.live[a].shared()
		dst = append(dst, MSHRDiag{Node: id, Addr: a, Issued: s.Issued, Write: s.IsWrite})
	}
	return dst
}

// replayTask re-issues an access that queued behind an outstanding miss
// once the miss retires. Tasks are pooled, so replaying a waiter
// schedules no closure.
type replayTask struct {
	b       *Base
	addr    msg.Addr
	isWrite bool
	done    func()
}

// Fire implements event.Task.
func (t *replayTask) Fire(event.Time) {
	b, addr, isWrite, done := t.b, t.addr, t.isWrite, t.done
	t.done = nil
	b.replayFree.Put(t)
	b.self.Access(addr, isWrite, done)
}

// replay schedules the node's Access(addr, isWrite, done) d cycles from
// now using a pooled task, so replaying queued waiters allocates
// nothing in steady state.
func (b *Base) replay(d event.Time, addr msg.Addr, isWrite bool, done func()) {
	t := b.replayFree.Get()
	t.b = b
	t.addr, t.isWrite, t.done = addr, isWrite, done
	b.Env.Eng.After(d, t)
}
