// Package token implements the token-counting substrate from Martin's
// token coherence, as used by PATCH: the five token-counting rules of the
// paper's Table 1, the MOESI-state/token-count correspondence of Table 2,
// and a whole-system token-conservation checker.
package token

import (
	"fmt"

	"patch/internal/addrmap"
	"patch/internal/msg"
)

// State is the per-block token state held by a component (cache line,
// home memory, or message in flight).
type State struct {
	Count int  // number of tokens held, including the owner token
	Owner bool // holds the owner token
	Dirty bool // owner token marked dirty (meaningful only when Owner)
	Valid bool // valid-data bit (Rule #5)
}

// Zero reports whether the state holds nothing.
func (s State) Zero() bool { return s.Count == 0 && !s.Owner }

// CanRead implements Rule #3: a component can read a block only if it
// holds at least one token and valid data.
func (s State) CanRead() bool { return s.Count >= 1 && s.Valid }

// CanWrite implements Rule #2: a component can write only when holding
// all T tokens and valid data.
func (s State) CanWrite(total int) bool { return s.Count == total && s.Valid }

// MOESI is the classical coherence state, derived from token counts
// (Table 2). F is the clean-owner "forward" state [Hum & Goodman].
type MOESI int

const (
	I MOESI = iota
	S
	O
	E
	F
	M
)

func (m MOESI) String() string {
	switch m {
	case I:
		return "I"
	case S:
		return "S"
	case O:
		return "O"
	case E:
		return "E"
	case F:
		return "F"
	case M:
		return "M"
	}
	return fmt.Sprintf("MOESI(%d)", int(m))
}

// ToMOESI maps a token state to the MOESI(+F) state per Table 2:
//
//	M: all tokens, owner dirty     O: some tokens, owner dirty
//	E: all tokens, owner clean     F: some tokens, owner clean
//	S: some tokens, no owner       I: no tokens
func (s State) ToMOESI(total int) MOESI {
	if !s.Valid || s.Count == 0 {
		return I
	}
	switch {
	case s.Owner && s.Dirty && s.Count == total:
		return M
	case s.Owner && s.Dirty:
		return O
	case s.Owner && s.Count == total:
		return E
	case s.Owner:
		return F
	default:
		return S
	}
}

// Add merges tokens arriving in a message into the state, enforcing the
// arrival side of the rules: the valid-data bit is set when data arrives
// with at least one token (Rule #5); a dirty owner token must have come
// with data (Rule #4 is asserted at send time by Attach).
func (s *State) Add(tokens int, owner, dirty, withData bool) {
	s.Count += tokens
	if owner {
		if s.Owner {
			panic("token: duplicate owner token")
		}
		s.Owner = true
		s.Dirty = dirty
	}
	if withData && s.Count >= 1 {
		s.Valid = true
	}
	if s.Count == 0 {
		s.Valid = false
	}
}

// TakeAll removes and returns the entire holding, clearing the valid bit
// (Rule #5: a component clears valid-data when it holds no tokens).
func (s *State) TakeAll() (tokens int, owner, dirty bool) {
	tokens, owner, dirty = s.Count, s.Owner, s.Dirty
	s.Count, s.Owner, s.Dirty, s.Valid = 0, false, false, false
	return
}

// TakeOwner removes just the owner token, returning its dirty bit. It
// panics if the state holds no owner token.
func (s *State) TakeOwner() (dirty bool) {
	if !s.Owner || s.Count < 1 {
		panic("token: TakeOwner without an owner token")
	}
	dirty = s.Dirty
	s.Owner, s.Dirty = false, false
	s.Count--
	if s.Count == 0 {
		s.Valid = false
	}
	return dirty
}

// TakeNonOwner removes and returns up to n non-owner tokens.
func (s *State) TakeNonOwner(n int) int {
	avail := s.Count
	if s.Owner {
		avail--
	}
	if n > avail {
		n = avail
	}
	s.Count -= n
	if s.Count == 0 {
		s.Valid = false
	}
	return n
}

// Attach places a token transfer onto a message, enforcing Rule #4: a
// dirty owner token must travel with data.
func Attach(m *msg.Message, tokens int, owner, dirty, withData bool) {
	if owner && dirty && !withData {
		panic("token: Rule #4 violation: dirty owner token without data")
	}
	m.Tokens = tokens
	m.Owner = owner
	m.OwnerDirty = dirty
	m.HasData = withData
}

// Holder is any component that can report its token holdings for
// conservation checking.
type Holder interface {
	// TokenHoldings invokes fn for every block with a non-zero holding.
	TokenHoldings(fn func(addr msg.Addr, count int, owner bool))
}

// CheckConservation verifies Rule #1 across a set of holders: for every
// block any holder reports, tokens sum to exactly total and exactly one
// owner token exists. Blocks never touched sit entirely at their home
// and are exempt when absent everywhere. Of several violating blocks it
// reports the one with the smallest address, so the error does not
// depend on the order the holders report in.
func CheckConservation(total int, holders []Holder) error {
	type sum struct{ count, owners int }
	var sums addrmap.Map[sum]
	add := func(addr msg.Addr, count int, owner bool) {
		s := sums.Ptr(addr)
		s.count += count
		if owner {
			s.owners++
		}
	}
	for _, h := range holders {
		h.TokenHoldings(add)
	}
	var bad sum
	var badAddr msg.Addr
	violations := 0
	sums.ForEach(func(a msg.Addr, s *sum) {
		if s.count == total && s.owners == 1 {
			return
		}
		if violations == 0 || a < badAddr {
			bad, badAddr = *s, a
		}
		violations++
	})
	switch {
	case violations == 0:
		return nil
	case bad.count != total:
		return fmt.Errorf("token conservation violated at %#x: %d tokens, want %d (%d blocks violate)",
			uint64(badAddr), bad.count, total, violations)
	default:
		return fmt.Errorf("token conservation violated at %#x: %d owner tokens, want 1 (%d blocks violate)",
			uint64(badAddr), bad.owners, violations)
	}
}
