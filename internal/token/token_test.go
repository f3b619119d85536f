package token

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"patch/internal/msg"
)

const total = 16

// TestMOESITokenMapping reproduces the paper's Table 2: the
// correspondence between token counts and MOESI states.
func TestMOESITokenMapping(t *testing.T) {
	cases := []struct {
		name  string
		state State
		want  MOESI
	}{
		{"all tokens, dirty owner -> M", State{Count: total, Owner: true, Dirty: true, Valid: true}, M},
		{"some tokens, dirty owner -> O", State{Count: 3, Owner: true, Dirty: true, Valid: true}, O},
		{"all tokens, clean owner -> E", State{Count: total, Owner: true, Valid: true}, E},
		{"some tokens, clean owner -> F", State{Count: 2, Owner: true, Valid: true}, F},
		{"one token, clean owner -> F", State{Count: 1, Owner: true, Valid: true}, F},
		{"some tokens, no owner -> S", State{Count: 4, Valid: true}, S},
		{"one token, no owner -> S", State{Count: 1, Valid: true}, S},
		{"no tokens -> I", State{}, I},
		{"tokens without valid data -> I", State{Count: 2}, I},
	}
	for _, c := range cases {
		if got := c.state.ToMOESI(total); got != c.want {
			t.Errorf("%s: got %v", c.name, got)
		}
	}
}

// TestWriteRule verifies Rule #2: writing requires all tokens plus data.
func TestWriteRule(t *testing.T) {
	if (State{Count: total - 1, Owner: true, Valid: true}).CanWrite(total) {
		t.Error("write allowed without all tokens")
	}
	if (State{Count: total, Owner: true}).CanWrite(total) {
		t.Error("write allowed without valid data")
	}
	if !(State{Count: total, Owner: true, Valid: true}).CanWrite(total) {
		t.Error("write denied with all tokens and data")
	}
}

// TestReadRule verifies Rule #3: reading requires >= 1 token plus data.
func TestReadRule(t *testing.T) {
	if (State{}).CanRead() {
		t.Error("read allowed with no tokens")
	}
	if (State{Count: 1}).CanRead() {
		t.Error("read allowed without valid data")
	}
	if !(State{Count: 1, Valid: true}).CanRead() {
		t.Error("read denied with a token and data")
	}
}

// TestDataTransferRule verifies Rule #4: a dirty owner token must travel
// with data.
func TestDataTransferRule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach allowed a dirty owner token without data")
		}
	}()
	var m msg.Message
	Attach(&m, 1, true, true, false)
}

func TestAttachCleanOwnerWithoutData(t *testing.T) {
	var m msg.Message
	Attach(&m, 1, true, false, false) // legal: clean owner, memory has data
	if m.Tokens != 1 || !m.Owner || m.OwnerDirty || m.HasData {
		t.Fatalf("unexpected message fields: %+v", m)
	}
}

// TestValidDataBitRule verifies Rule #5's arrival/clearing behaviour.
func TestValidDataBitRule(t *testing.T) {
	var s State
	s.Add(1, false, false, false) // token without data: still invalid
	if s.Valid {
		t.Error("valid set without data")
	}
	s.Add(1, false, false, true) // data + token: valid
	if !s.Valid {
		t.Error("valid not set by data+token arrival")
	}
	if got := s.TakeNonOwner(2); got != 2 {
		t.Fatalf("TakeNonOwner(2) = %d", got)
	}
	if s.Valid {
		t.Error("valid survives losing all tokens")
	}
}

func TestTakeAll(t *testing.T) {
	s := State{Count: 5, Owner: true, Dirty: true, Valid: true}
	n, owner, dirty := s.TakeAll()
	if n != 5 || !owner || !dirty {
		t.Fatalf("TakeAll = %d,%v,%v", n, owner, dirty)
	}
	if !s.Zero() || s.Valid {
		t.Fatalf("state not cleared: %+v", s)
	}
}

func TestTakeOwner(t *testing.T) {
	s := State{Count: 3, Owner: true, Dirty: true, Valid: true}
	if dirty := s.TakeOwner(); !dirty {
		t.Fatal("TakeOwner lost the dirty bit")
	}
	if s.Count != 2 || s.Owner {
		t.Fatalf("state after TakeOwner: %+v", s)
	}
	// Taking the owner from a non-owner panics.
	defer func() {
		if recover() == nil {
			t.Fatal("TakeOwner without owner did not panic")
		}
	}()
	s.TakeOwner()
}

func TestDuplicateOwnerPanics(t *testing.T) {
	s := State{Count: 1, Owner: true, Valid: true}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate owner token accepted")
		}
	}()
	s.Add(1, true, false, true)
}

func TestTakeNonOwnerRespectsOwner(t *testing.T) {
	s := State{Count: 3, Owner: true, Valid: true}
	if got := s.TakeNonOwner(10); got != 2 {
		t.Fatalf("TakeNonOwner(10) = %d, want 2 (owner token is not takable)", got)
	}
	if s.Count != 1 || !s.Owner {
		t.Fatalf("owner token disturbed: %+v", s)
	}
}

type mapHolder map[msg.Addr]State

func (h mapHolder) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	for a, s := range h {
		if !s.Zero() {
			fn(a, s.Count, s.Owner)
		}
	}
}

func TestCheckConservationOK(t *testing.T) {
	h1 := mapHolder{0x100: {Count: 10, Owner: true}}
	h2 := mapHolder{0x100: {Count: 4}}
	inflight := mapHolder{0x100: {Count: 2}}
	if err := CheckConservation(16, []Holder{h1, h2, inflight}); err != nil {
		t.Fatalf("conservation reported violation: %v", err)
	}
}

func TestCheckConservationDetectsLoss(t *testing.T) {
	h := mapHolder{0x100: {Count: 15, Owner: true}}
	if err := CheckConservation(16, []Holder{h}); err == nil {
		t.Fatal("lost token not detected")
	}
}

func TestCheckConservationDetectsDuplicateOwner(t *testing.T) {
	h1 := mapHolder{0x100: {Count: 8, Owner: true}}
	h2 := mapHolder{0x100: {Count: 8, Owner: true}}
	if err := CheckConservation(16, []Holder{h1, h2}); err == nil {
		t.Fatal("duplicate owner not detected")
	}
}

// TestCheckConservationNamesSmallestBlock pins which violation is
// reported when several blocks violate: always the smallest address,
// whatever order the holders (here Go maps) report their blocks in.
func TestCheckConservationNamesSmallestBlock(t *testing.T) {
	h := mapHolder{
		0x40: {Count: 16, Owner: true}, 0x80: {Count: 16, Owner: true},
		0x1c0: {Count: 15, Owner: true}, // a token short
		0x140: {Count: 16, Owner: true},
		0x100: {Count: 16}, // no owner token
		0x200: {Count: 16, Owner: true},
	}
	for i := 0; i < 50; i++ {
		err := CheckConservation(16, []Holder{h})
		if err == nil || !strings.Contains(err.Error(), "at 0x100:") {
			t.Fatalf("call %d: %v, want the violation at 0x100", i, err)
		}
	}
}

// TestPropertyConservationUnderTransfers moves tokens randomly between
// holders and checks that conservation always holds and states map to
// compatible MOESI combinations (never two writers).
func TestPropertyConservationUnderTransfers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const parties = 6
		states := make([]State, parties)
		states[0] = State{Count: total, Owner: true, Valid: true}
		for step := 0; step < 200; step++ {
			from := r.Intn(parties)
			to := r.Intn(parties)
			if from == to || states[from].Zero() {
				continue
			}
			if r.Intn(2) == 0 && states[from].Owner {
				// Move the whole holding (owner transfer with data).
				n, owner, dirty := states[from].TakeAll()
				states[to].Add(n, owner, dirty, true)
			} else {
				n := states[from].TakeNonOwner(1 + r.Intn(3))
				states[to].Add(n, false, false, r.Intn(2) == 0)
			}
			// Invariants after every step.
			sum, owners, writers := 0, 0, 0
			for i := range states {
				sum += states[i].Count
				if states[i].Owner {
					owners++
				}
				if states[i].CanWrite(total) {
					writers++
				}
			}
			if sum != total || owners != 1 || writers > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
