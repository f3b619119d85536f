// Package event provides a deterministic discrete-event simulation engine.
//
// The engine is a binary-heap priority queue of tasks keyed by
// (time, sequence). Two events scheduled for the same cycle fire in the
// order they were scheduled, which makes whole-system simulations
// reproducible for a given seed.
//
// The engine recycles its event slots through an internal free-list, so
// steady-state scheduling performs no allocation: a slot is returned to
// the free-list the moment its event fires or is cancelled. Handles are
// generation-checked — a stale Handle kept across a slot's recycling can
// neither cancel nor observe the slot's new occupant.
package event

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

// item is one pooled event slot. The generation counter increments every
// time the slot is released, invalidating outstanding Handles.
type item struct {
	task Task
	gen  uint32
}

// heapEntry is one element of the priority queue. Entries carry the
// ordering key and the (slot, generation) pair; cancelled events leave a
// stale entry behind, skipped lazily when it surfaces at the top.
type heapEntry struct {
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
	heap  []heapEntry
	items []item
	free  []int32
	now   Time
	seq   uint64
	fired uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to time zero with an empty queue, retaining
// the slot and heap capacity so a reused engine schedules without
// re-growing. Pending events are cancelled (their slots recycled, their
// Handles invalidated by the generation bump); the sequence counter
// restarts, so a reset engine orders same-cycle events exactly like a
// fresh one.
func (e *Engine) Reset() {
	for _, en := range e.heap {
		if e.items[en.idx].gen == en.gen {
			e.freeItem(en.idx)
		}
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Len returns the number of events currently queued (including cancelled
// events that have not yet been popped).
func (e *Engine) Len() int { return len(e.heap) }

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
	e.push(heapEntry{at: t, seq: e.seq, idx: idx, gen: it.gen})
	e.seq++
	return Handle{eng: e, idx: idx, gen: it.gen}
}

// After schedules task to fire d cycles from now.
//
//patch:steadystate
func (e *Engine) After(d Time, task Task) Handle { return e.At(e.now+d, task) }

// freeItem releases a slot back to the free-list, invalidating handles
// (and any stale heap entry) via the generation bump.
//
//patch:steadystate
func (e *Engine) freeItem(idx int32) {
	it := &e.items[idx]
	it.gen++
	it.task = nil
	e.free = append(e.free, idx)
}

// less orders entries by (time, sequence); seq is unique, so this is a
// total order and the pop sequence is independent of heap layout.
func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(en heapEntry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// popTop removes the minimum entry.
func (e *Engine) popTop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && less(e.heap[r], e.heap[l]) {
			c = r
		}
		if !less(e.heap[c], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[c] = e.heap[c], e.heap[i]
		i = c
	}
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		e.popTop()
		it := &e.items[top.idx]
		if it.gen != top.gen {
			continue // cancelled; slot already recycled
		}
		task := it.task
		e.freeItem(top.idx)
		e.now = top.at
		e.fired++
		task.Fire(e.now)
		return true
	}
	return false
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
