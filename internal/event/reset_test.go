package event

import "testing"

// TestReset checks a reset engine behaves like a fresh one: pending
// events are cancelled (their handles invalidated), the clock and
// sequence restart, and same-cycle ordering matches a never-used
// engine's.
func TestReset(t *testing.T) {
	e := &Engine{}
	fired := 0
	e.After(5, Func(func(Time) { fired++ }))
	e.Step()
	h := e.After(10, Func(func(Time) { fired++ }))
	e.After(20, Func(func(Time) { fired++ }))

	e.Reset()
	if e.Now() != 0 || e.Len() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: now=%d len=%d fired=%d", e.Now(), e.Len(), e.Fired())
	}
	if h.Pending() {
		t.Fatal("handle still pending after Reset")
	}
	h.Cancel() // must be a no-op, not a cancellation of a recycled slot

	// Same-cycle ordering on the reused engine matches a fresh engine.
	var reused, fresh []int
	f := &Engine{}
	for i := 0; i < 5; i++ {
		i := i
		e.At(7, Func(func(Time) { reused = append(reused, i) }))
		f.At(7, Func(func(Time) { fresh = append(fresh, i) }))
	}
	e.Run(0)
	f.Run(0)
	if len(reused) != 5 || len(fresh) != 5 {
		t.Fatalf("ran %d/%d events", len(reused), len(fresh))
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("order diverged at %d: reused %v fresh %v", i, reused, fresh)
		}
	}
	if fired != 1 {
		t.Fatalf("cancelled events fired: %d", fired)
	}
}
