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
	if e.Owner != HomeOwner {
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

// TestRemoveKeepsCoarseBit: under a coarse encoding a sharer's bit
// also stands for the rest of its group, so removing one core leaves
// the whole group in the superset.
func TestRemoveKeepsCoarseBit(t *testing.T) {
	s := NewSharerSet(Encoding{Cores: 64, Coarseness: 4})
	s.Add(4)
	s.Remove(5)
	if !s.Contains(4) || !s.Contains(5) {
		t.Fatal("Remove cleared a coarse group bit")
	}
}

// TestMigratoryDetector: a read then a write by the same core marks
// the block migratory; a read by another core of a marked block may
// convert while the block is owned elsewhere; two reads by different
// cores, or a write by a core other than the last reader, clear the
// mark.
func TestMigratoryDetector(t *testing.T) {
	d := New(0, FullMap(8), 0)
	e := d.Entry(0x40)
	e.NoteRead(1, false)
	e.NoteWrite(1)
	if !e.Migratory {
		t.Fatal("read then write by core 1 not detected")
	}
	e.Owner = 1
	if !e.MigratoryRead(2) || e.MigratoryRead(1) {
		t.Fatal("MigratoryRead must hold for another core's read only")
	}
	e.NoteRead(2, false)
	e.NoteRead(3, false)
	if e.Migratory {
		t.Fatal("reads by two cores left the mark set")
	}
	e.Migratory = true
	e.NoteRead(2, false)
	e.NoteWrite(3)
	if e.Migratory {
		t.Fatal("a write by a core other than the last reader left the mark set")
	}
}

// TestDeactivate covers the commit a deactivation applies and the
// settling of an attempted migratory conversion.
func TestDeactivate(t *testing.T) {
	fresh := func(enc Encoding) *Entry {
		e := New(0, enc, 0).Entry(0x40)
		e.Owner = 2
		e.Sharers.Add(1)
		e.Sharers.Add(3)
		return e
	}
	exact := FullMap(8)

	e := fresh(exact)
	e.Commit = Commit{Kind: CommitWrite, Req: 3}
	e.Deactivate(false)
	if e.Owner != 3 || e.Sharers.Count() != 0 || e.Commit != (Commit{}) {
		t.Fatalf("write commit: owner %d, %d sharers, commit %+v", e.Owner, e.Sharers.Count(), e.Commit)
	}

	e = fresh(exact)
	e.Commit = Commit{Kind: CommitRead, Req: 3, Prev: 2}
	e.Deactivate(false)
	if e.Owner != 3 || !e.Sharers.Contains(1) || !e.Sharers.Contains(2) || e.Sharers.Contains(3) {
		t.Fatalf("read commit: owner %d, sharers %v", e.Owner, e.Sharers.AppendMembers(nil, -2))
	}

	e = fresh(exact)
	e.Commit = Commit{Kind: CommitRead, Req: 3, Prev: HomeOwner}
	e.Deactivate(false)
	if got := e.Sharers.AppendMembers(nil, -2); e.Owner != 3 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("read of a home-owned block: owner %d, sharers %v", e.Owner, got)
	}

	// Under a coarse encoding Remove keeps the requester's group, so an
	// Add of the requester would show: the previous owner joins the
	// sharers only when it is not the requester itself.
	e = New(0, Encoding{Cores: 8, Coarseness: 2}, 0).Entry(0x40)
	e.Owner = 6
	e.Commit = Commit{Kind: CommitRead, Req: 6, Prev: 6}
	e.Deactivate(false)
	if e.Owner != 6 || e.Sharers.Count() != 0 {
		t.Fatalf("owner's own read: owner %d, %d sharers", e.Owner, e.Sharers.Count())
	}

	for _, migrated := range []bool{true, false} {
		e = fresh(exact)
		e.Migratory = true
		e.NoteRead(3, true)
		e.Commit = Commit{Kind: CommitMigratory, Req: 3, Prev: 2}
		e.Deactivate(migrated)
		if e.Owner != 3 || e.MigrAttempted || e.Migratory != migrated {
			t.Fatalf("migratory commit (migrated %v): owner %d, attempted %v, migratory %v",
				migrated, e.Owner, e.MigrAttempted, e.Migratory)
		}
		got := e.Sharers.AppendMembers(nil, -2)
		if migrated && len(got) != 0 {
			t.Fatalf("a conversion that happened left sharers %v", got)
		}
		if !migrated && (len(got) != 2 || got[0] != 1 || got[1] != 2) {
			t.Fatalf("a conversion that did not happen left sharers %v, want [1 2]", got)
		}
	}

	// PATCH commits a migratory conversion as a read; the attempt still
	// settles.
	e = fresh(exact)
	e.Migratory = true
	e.NoteRead(3, true)
	e.Commit = Commit{Kind: CommitRead, Req: 3, Prev: 2}
	e.Deactivate(false)
	if e.Migratory || e.MigrAttempted || !e.Sharers.Contains(2) {
		t.Fatal("an attempted conversion that did not happen must clear the mark")
	}
}
