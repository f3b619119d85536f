package event

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyEngine(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
	if got := e.Run(0); got != 0 {
		t.Fatalf("Run fired %d events on empty engine", got)
	}
}

func TestFiresInTimeOrder(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, Func(func(now Time) {
			if now != at {
				t.Errorf("fired at %d, scheduled for %d", now, at)
			}
			got = append(got, now)
		}))
	}
	e.Run(0)
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, Func(func(Time) { got = append(got, i) }))
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events fired out of order: %v", got)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	var e Engine
	var fired []Time
	e.After(10, Func(func(now Time) {
		fired = append(fired, now)
		e.After(5, Func(func(now Time) { fired = append(fired, now) }))
	}))
	e.Run(0)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	var e Engine
	var lastNow Time
	e.At(100, Func(func(now Time) {
		e.At(50, Func(func(now Time) { lastNow = now })) // in the past
	}))
	e.Run(0)
	if lastNow != 100 {
		t.Fatalf("past-scheduled event fired at %d, want clamp to 100", lastNow)
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	h := e.At(10, Func(func(Time) { fired = true }))
	if !h.Pending() {
		t.Fatal("handle should be pending before cancel")
	}
	h.Cancel()
	if h.Pending() {
		t.Fatal("handle should not be pending after cancel")
	}
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-run are no-ops.
	h.Cancel()
	var zero Handle
	zero.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	var e Engine
	count := 0
	var handles []Handle
	for i := 0; i < 100; i++ {
		handles = append(handles, e.At(Time(i), Func(func(Time) { count++ })))
	}
	for i := 0; i < 100; i += 2 {
		handles[i].Cancel()
	}
	e.Run(0)
	if count != 50 {
		t.Fatalf("fired %d, want 50", count)
	}
}

func TestRunLimit(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.At(Time(i), Func(func(Time) {}))
	}
	if n := e.Run(3); n != 3 {
		t.Fatalf("Run(3) fired %d", n)
	}
	if n := e.Run(0); n != 7 {
		t.Fatalf("second Run fired %d, want 7", n)
	}
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10", e.Fired())
	}
}

// TestPropertyOrdering drives the engine with random schedules and
// verifies global time monotonicity and stable FIFO within a cycle.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		r := rand.New(rand.NewSource(seed))
		var e Engine
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i := 0; i < n; i++ {
			at := Time(r.Intn(50))
			i := i
			e.At(at, Func(func(now Time) { fired = append(fired, rec{now, i}) }))
		}
		e.Run(0)
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
