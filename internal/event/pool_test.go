package event

import "testing"

// TestStaleHandleCannotCancelRecycledSlot is the event-pooling safety
// property: once an event fires or is cancelled its slot is recycled,
// and a stale Handle kept from the old occupant must not be able to
// cancel (or observe) the slot's new occupant. The generation counter
// enforces this.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	var e Engine
	var fired []string

	ha := e.At(10, Func(func(Time) { fired = append(fired, "a") }))
	ha.Cancel() // slot freed, generation bumped

	hb := e.At(20, Func(func(Time) { fired = append(fired, "b") }))
	if ha.idx != hb.idx {
		t.Fatalf("expected slot reuse: a=%d b=%d", ha.idx, hb.idx)
	}
	if ha.gen == hb.gen {
		t.Fatal("recycled slot kept its generation")
	}

	ha.Cancel() // stale: must be a no-op on b's occupancy
	if ha.Pending() {
		t.Fatal("cancelled handle reports pending")
	}
	if !hb.Pending() {
		t.Fatal("stale Cancel killed the recycled slot's new occupant")
	}
	e.Run(0)
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want [b]", fired)
	}
}

// TestStaleHandleAfterFire covers the fire path: a handle to an event
// that already fired must go stale even once the slot is reoccupied.
func TestStaleHandleAfterFire(t *testing.T) {
	var e Engine
	var got []int

	h1 := e.At(1, Func(func(Time) { got = append(got, 1) }))
	if !e.Step() {
		t.Fatal("no event fired")
	}
	if h1.Pending() {
		t.Fatal("fired event still pending")
	}

	h2 := e.At(2, Func(func(Time) { got = append(got, 2) }))
	if h1.idx != h2.idx {
		t.Fatalf("expected slot reuse: %d vs %d", h1.idx, h2.idx)
	}
	h1.Cancel() // stale
	e.Run(0)
	if len(got) != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
}

// TestSlotRecyclingReuses checks the free-list actually bounds the item
// arena: a long fire/schedule ping-pong must not grow the arena.
func TestSlotRecyclingReuses(t *testing.T) {
	var e Engine
	var n int
	var tick Func
	tick = func(Time) {
		if n++; n < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run(0)
	if n != 1000 {
		t.Fatalf("fired %d", n)
	}
	if len(e.items) > 2 {
		t.Fatalf("item arena grew to %d slots for a single outstanding event", len(e.items))
	}
}

type countTask struct{ n int }

func (c *countTask) Fire(Time) { c.n++ }

// TestTaskAndFunc exercises both ways to schedule: a pooled Task the
// caller reschedules, and a callback adapted by Func.
func TestTaskAndFunc(t *testing.T) {
	var e Engine
	ct := &countTask{}
	e.At(5, ct)
	e.After(7, ct)
	calls := 0
	e.After(3, Func(func(Time) { calls++ }))
	e.Run(0)
	if ct.n != 2 || calls != 1 {
		t.Fatalf("task fired %d (want 2), func fired %d (want 1)", ct.n, calls)
	}
	if e.Now() != 7 {
		t.Fatalf("clock at %d, want 7", e.Now())
	}
}

// TestFuncSchedulesWithoutAllocating pins that adapting an existing
// callback with Func costs nothing: a func value is pointer-shaped, so
// it converts to a Task without allocating, and the slot is recycled.
func TestFuncSchedulesWithoutAllocating(t *testing.T) {
	var e Engine
	n := 0
	fn := func(Time) { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		e.After(1, Func(fn))
		e.Run(0)
	})
	if allocs != 0 || n == 0 {
		t.Fatalf("%.1f allocations per scheduled Func (fired %d)", allocs, n)
	}
}

// TestCancelIsIdempotent double-cancels through both live and stale
// handles.
func TestCancelIsIdempotent(t *testing.T) {
	var e Engine
	fired := false
	h := e.At(4, Func(func(Time) { fired = true }))
	h.Cancel()
	h.Cancel()
	var zero Handle
	zero.Cancel() // zero handle: no-op
	if zero.Pending() {
		t.Fatal("zero handle pending")
	}
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}
