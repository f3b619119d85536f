package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"patch/internal/msg"
)

func TestEncodingValidate(t *testing.T) {
	if err := (Encoding{Cores: 64, Coarseness: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Encoding{
		{Cores: 0, Coarseness: 1},
		{Cores: 64, Coarseness: 0},
		{Cores: 64, Coarseness: 65},
		{Cores: 64, Coarseness: 3}, // does not divide
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("encoding %+v accepted", e)
		}
	}
}

func TestFullMapExact(t *testing.T) {
	s := NewSharerSet(FullMap(64))
	s.Add(5)
	s.Add(63)
	if !s.Contains(5) || !s.Contains(63) || s.Contains(6) {
		t.Fatal("full-map membership wrong")
	}
	got := s.AppendMembers(nil, -2)
	if len(got) != 2 || got[0] != 5 || got[1] != 63 {
		t.Fatalf("members = %v", got)
	}
	s.Remove(5)
	if s.Contains(5) || !s.Contains(63) {
		t.Fatal("remove wrong")
	}
}

func TestMembersExcludes(t *testing.T) {
	s := NewSharerSet(FullMap(8))
	s.Add(1)
	s.Add(2)
	got := s.AppendMembers(nil, 2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("members excluding 2 = %v", got)
	}
}

// TestCoarseSupersets verifies the key property of inexact encodings:
// membership is a conservative over-approximation (no false negatives),
// and coarseness K expands each sharer to its K-core group (Figure 9's
// setup).
func TestCoarseSupersets(t *testing.T) {
	for _, k := range []int{1, 4, 16, 64} {
		enc := Encoding{Cores: 64, Coarseness: k}
		s := NewSharerSet(enc)
		s.Add(17)
		if !s.Contains(17) {
			t.Fatalf("K=%d: false negative", k)
		}
		members := s.AppendMembers(nil, -2)
		if len(members) != k {
			t.Fatalf("K=%d: %d members, want %d", k, len(members), k)
		}
		base := (17 / k) * k
		for i, m := range members {
			if m != msg.NodeID(base+i) {
				t.Fatalf("K=%d: member %v not in group of 17", k, m)
			}
		}
		if s.Count() != k {
			t.Fatalf("K=%d: Count = %d", k, s.Count())
		}
	}
}

func TestSingleBitEncoding(t *testing.T) {
	enc := Encoding{Cores: 64, Coarseness: 64}
	s := NewSharerSet(enc)
	if s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Add(3)
	if s.Count() != 64 {
		t.Fatalf("single-bit encoding expands to %d, want 64", s.Count())
	}
	if len(s.AppendMembers(nil, 3)) != 63 {
		t.Fatal("exclusion under single-bit encoding wrong")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("clear failed")
	}
}

// TestPropertyNoFalseNegatives: any added member is always contained, at
// any coarseness.
func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ks := []int{1, 2, 4, 8, 16, 32, 64}
		enc := Encoding{Cores: 64, Coarseness: ks[r.Intn(len(ks))]}
		s := NewSharerSet(enc)
		added := map[msg.NodeID]bool{}
		for i := 0; i < 40; i++ {
			n := msg.NodeID(r.Intn(64))
			s.Add(n)
			added[n] = true
			for a := range added {
				if !s.Contains(a) {
					return false
				}
			}
			// Members must be a superset of added.
			mem := map[msg.NodeID]bool{}
			for _, m := range s.AppendMembers(nil, -2) {
				mem[m] = true
			}
			for a := range added {
				if !mem[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryInitialTokenState(t *testing.T) {
	d := New(0, FullMap(16), 16)
	e := d.Entry(0x1000)
	if e.Owner != HomeOwner || !e.DataAtMemory {
		t.Fatal("fresh entry should be memory-owned")
	}
	if e.Tok.Count != 16 || !e.Tok.Owner || e.Tok.Dirty {
		t.Fatalf("fresh entry tokens: %+v", e.Tok)
	}
	if d.Entry(0x1000) != e {
		t.Fatal("Entry not idempotent")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestEntryNoTokensForDirectory(t *testing.T) {
	d := New(0, FullMap(16), 0)
	e := d.Entry(0x40)
	if !e.Tok.Zero() {
		t.Fatal("pure directory entry must hold no tokens")
	}
}

func TestTokenHoldings(t *testing.T) {
	d := New(0, FullMap(16), 16)
	d.Entry(0x40)
	e := d.Entry(0x80)
	e.Tok.TakeAll()
	count := 0
	d.TokenHoldings(func(a msg.Addr, c int, owner bool) {
		count++
		if a != 0x40 || c != 16 || !owner {
			t.Errorf("unexpected holding %#x %d %v", uint64(a), c, owner)
		}
	})
	if count != 1 {
		t.Fatalf("reported %d holdings, want 1 (empty entries skipped)", count)
	}
}
