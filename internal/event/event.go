// Package event provides a deterministic discrete-event simulation engine.
//
// Events fire in (time, sequence) order: two events scheduled for the
// same cycle fire in the order they were scheduled, which makes
// whole-system simulations reproducible for a given seed.
//
// The queue is a calendar queue (Brown, CACM 1988), laid out as a hashed
// timing wheel (Varghese and Lauck, SOSP 1987): a ring of ringSize
// per-cycle FIFO buckets covering the cycles [Now, Now+ringSize), plus a
// binary heap keyed by (time, sequence) for the rare event scheduled
// ringSize or more cycles ahead. The simulator schedules nearly every
// event a few cycles ahead, so scheduling appends to a bucket's tail and
// firing pops the head of the earliest non-empty bucket, which an
// occupancy bitmap finds in a few word reads.
//
// The pop order is exactly that of one (time, sequence) heap, not merely
// an equivalent one. The engine never schedules in the past and the
// sequence grows with every schedule, so appending keeps each bucket in
// sequence order. Far events join that order under two rules: the clock
// moves only when a live event fires, and when it moves, every far event
// it brings inside the ring goes to its bucket's tail, in (time,
// sequence) order, before the fired task can schedule anything. A far
// event for cycle t was scheduled while t lay outside the ring, so before
// anything could be appended to t's bucket directly.
//
// The engine recycles its event slots through an internal free-list, so
// steady-state scheduling performs no allocation: a slot is returned to
// the free-list the moment its event fires or is cancelled. Handles are
// generation-checked — a stale Handle kept across a slot's recycling can
// neither cancel nor observe the slot's new occupant. A cancelled event's
// queue entry stays queued, and counted by Len, until it surfaces and is
// skipped; since its slot may already hold a new event by then, queue
// entries have a free-list of their own.
package event

import "math/bits"

// Time is the simulated clock, in cycles.
type Time uint64

// Task is what an event fires. Hot-path schedulers implement it on a
// pooled struct, typically rescheduling the same value as work
// progresses, so scheduling allocates nothing.
type Task interface {
	Fire(now Time)
}

// Func adapts a callback to Task. A func value is pointer-shaped, so
// converting a Func to a Task does not allocate.
type Func func(now Time)

// Fire implements Task.
func (f Func) Fire(now Time) { f(now) }

// ringSize is the ring's width in cycles, a power of two. Every event
// the simulator schedules lands within it (the measured maximum on the
// 64-core figure grid is under 512 cycles ahead); the far heap only
// keeps the engine correct for longer delays.
const (
	ringSize  = 512
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// item is one pooled event slot. The generation counter increments every
// time the slot is released, invalidating outstanding Handles.
type item struct {
	task Task
	gen  uint32
}

// entry is one queued event in a bucket: its slot and the slot's
// generation when scheduled, linked to the next entry of the same
// cycle. Index 0 ends a list; entries[0] is never used.
type entry struct {
	idx  int32
	gen  uint32
	next int32
}

// bucket is one cycle's FIFO of entries (indices into Engine.entries, 0
// when empty).
type bucket struct{ head, tail int32 }

// farEntry is an event scheduled ringSize or more cycles ahead.
type farEntry struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

// Handle identifies a scheduled event so that it can be cancelled. The
// zero Handle is valid and refers to nothing.
type Handle struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event's slot is recycled
// immediately.
func (h Handle) Cancel() {
	if h.eng == nil || h.eng.items[h.idx].gen != h.gen {
		return
	}
	h.eng.freeItem(h.idx)
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	return h.eng != nil && h.eng.items[h.idx].gen == h.gen
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	items []item
	free  []int32

	// ring[t&ringMask] queues the events of cycle t for t in
	// [now, now+ringSize); bit b of busy is set while ring[b] is
	// non-empty. inRing counts the ring's entries, cancelled ones
	// included.
	ring     [ringSize]bucket
	busy     [ringWords]uint64
	entries  []entry
	freeEnts int32 // free-list of entries, chained through next
	inRing   int

	// far is a (time, sequence) min-heap of the events at or beyond
	// now+ringSize.
	far []farEntry

	now   Time
	seq   uint64
	fired uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to time zero with an empty queue, retaining
// the slot, entry and heap capacity so a reused engine schedules without
// re-growing. Pending events are cancelled (their slots recycled, their
// Handles invalidated by the generation bump); the sequence counter
// restarts, so a reset engine orders same-cycle events exactly like a
// fresh one.
func (e *Engine) Reset() {
	for b := range e.ring {
		for n := e.ring[b].head; n != 0; n = e.entries[n].next {
			e.cancelQueued(e.entries[n].idx, e.entries[n].gen)
		}
	}
	for _, f := range e.far {
		e.cancelQueued(f.idx, f.gen)
	}
	e.ring = [ringSize]bucket{}
	e.busy = [ringWords]uint64{}
	e.entries = e.entries[:0]
	e.freeEnts = 0
	e.inRing = 0
	e.far = e.far[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
}

// cancelQueued releases a queued entry's slot unless it was already
// released (fired or cancelled).
func (e *Engine) cancelQueued(idx int32, gen uint32) {
	if e.items[idx].gen == gen {
		e.freeItem(idx)
	}
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Len returns the number of events currently queued (including cancelled
// events that have not yet been popped).
func (e *Engine) Len() int { return e.inRing + len(e.far) }

// At schedules task to fire at absolute time t. Scheduling in the past
// (t < Now) fires the event at the current time instead; the engine never
// moves backwards. The caller owns the Task value and may reschedule it
// once it has fired.
//
//patch:steadystate
func (e *Engine) At(t Time, task Task) Handle {
	if t < e.now {
		t = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.items = append(e.items, item{})
		idx = int32(len(e.items) - 1)
	}
	it := &e.items[idx]
	it.task = task
	if t-e.now < ringSize {
		e.enqueue(t, idx, it.gen)
	} else {
		e.pushFar(farEntry{at: t, seq: e.seq, idx: idx, gen: it.gen})
	}
	e.seq++
	return Handle{eng: e, idx: idx, gen: it.gen}
}

// After schedules task to fire d cycles from now.
//
//patch:steadystate
func (e *Engine) After(d Time, task Task) Handle { return e.At(e.now+d, task) }

// freeItem releases a slot back to the free-list, invalidating handles
// (and any stale queue entry) via the generation bump.
//
//patch:steadystate
func (e *Engine) freeItem(idx int32) {
	it := &e.items[idx]
	it.gen++
	it.task = nil
	e.free = append(e.free, idx)
}

// enqueue appends slot idx to the tail of cycle t's bucket; t must lie
// in [now, now+ringSize).
//
//patch:steadystate
func (e *Engine) enqueue(t Time, idx int32, gen uint32) {
	n := e.freeEnts
	if n != 0 {
		e.freeEnts = e.entries[n].next
	} else {
		if len(e.entries) == 0 {
			e.entries = append(e.entries, entry{}) // the list terminator
		}
		n = int32(len(e.entries))
		e.entries = append(e.entries, entry{})
	}
	e.entries[n] = entry{idx: idx, gen: gen}
	b := uint(t) & ringMask
	if bk := &e.ring[b]; bk.tail == 0 {
		bk.head = n
		bk.tail = n
		e.busy[b>>6] |= 1 << (b & 63)
	} else {
		e.entries[bk.tail].next = n
		bk.tail = n
	}
	e.inRing++
}

// nextBusy returns the earliest cycle whose bucket is non-empty. The
// ring must hold an entry. Every entry lies within ringSize cycles of
// now, so the first set bit at or after now's bucket, wrapping around,
// is the earliest.
func (e *Engine) nextBusy() Time {
	start := uint(e.now) & ringMask
	w := start >> 6
	if word := e.busy[w] >> (start & 63); word != 0 {
		return e.now + Time(bits.TrailingZeros64(word))
	}
	for i := uint(1); i <= ringWords; i++ {
		b := (w + i) % ringWords
		if word := e.busy[b]; word != 0 {
			at := b<<6 | uint(bits.TrailingZeros64(word))
			return e.now + Time((at-start)&ringMask)
		}
	}
	panic("event: ring count and occupancy bitmap disagree")
}

// advance moves the clock to t, where a live event is about to fire, and
// moves every far event the ring now covers to its bucket's tail, in
// (time, sequence) order.
//
//patch:steadystate
func (e *Engine) advance(t Time) {
	e.now = t
	for len(e.far) > 0 && e.far[0].at-t < ringSize {
		f := e.far[0]
		e.popFar()
		e.enqueue(f.at, f.idx, f.gen)
	}
}

// Step fires the next event. It returns false when the queue is empty.
//
//patch:steadystate
func (e *Engine) Step() bool {
	for {
		if e.inRing == 0 {
			if len(e.far) == 0 {
				return false
			}
			top := e.far[0]
			if e.items[top.idx].gen != top.gen {
				e.popFar() // cancelled; slot already recycled
				continue
			}
			// The next live event lies past the ring: move the clock to
			// it, which brings it (first in its cycle) into the ring.
			e.advance(top.at)
		}
		t := e.nextBusy()
		b := uint(t) & ringMask
		bk := &e.ring[b]
		n := bk.head
		en := e.entries[n]
		if bk.head = en.next; bk.head == 0 {
			bk.tail = 0
			e.busy[b>>6] &^= 1 << (b & 63)
		}
		e.entries[n].next = e.freeEnts
		e.freeEnts = n
		e.inRing--
		it := &e.items[en.idx]
		if it.gen != en.gen {
			continue // cancelled; slot already recycled
		}
		task := it.task
		e.freeItem(en.idx)
		if t != e.now {
			e.advance(t)
		}
		e.fired++
		task.Fire(t)
		return true
	}
}

// Run fires events until the queue is empty or the limit of fired events
// is reached. A limit of 0 means no limit. It returns the number of
// events fired during this call.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for {
		if limit > 0 && n >= limit {
			return n
		}
		if !e.Step() {
			return n
		}
		n++
	}
}

// farLess orders far entries by (time, sequence); seq is unique, so this
// is a total order and the pop sequence is independent of heap layout.
func farLess(a, b farEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//patch:steadystate
func (e *Engine) pushFar(f farEntry) {
	e.far = append(e.far, f)
	i := len(e.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !farLess(e.far[i], e.far[parent]) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

// popFar removes the far heap's minimum entry.
//
//patch:steadystate
func (e *Engine) popFar() {
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && farLess(e.far[r], e.far[l]) {
			c = r
		}
		if !farLess(e.far[c], e.far[i]) {
			break
		}
		e.far[i], e.far[c] = e.far[c], e.far[i]
		i = c
	}
}
