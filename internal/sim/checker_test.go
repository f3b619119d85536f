package sim

import (
	"strings"
	"testing"

	"patch/internal/cache"
	"patch/internal/predictor"
	"patch/internal/token"
)

// runToCompletion builds and runs a small PATCH system, returning it
// before invariant checking so tests can corrupt state and prove the
// checkers catch it (mutation testing of the verification
// infrastructure itself).
func runToCompletion(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Protocol: PATCH, Policy: predictor.All, BestEffort: true,
		Cores: 8, OpsPerCore: 100, WarmupOps: 100, Workload: "micro", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	s.Eng.Run(0)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean run failed checks: %v", err)
	}
	return s
}

// tokenHolder finds a cache line currently holding tokens.
func tokenHolder(t *testing.T, s *System) *cache.Line {
	t.Helper()
	for _, n := range s.Nodes {
		var found *cache.Line
		n.Shared().L2.ForEach(func(l *cache.Line) {
			if found == nil && !l.Tok.Zero() {
				found = l
			}
		})
		if found != nil {
			return found
		}
	}
	t.Fatal("no token-holding line found")
	return nil
}

func TestCheckerCatchesLostToken(t *testing.T) {
	s := runToCompletion(t)
	l := tokenHolder(t, s)
	l.Tok.Count-- // destroy a token (Rule #1 violation)
	if l.Tok.Count == 0 {
		l.Tok.Owner = false
	}
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("lost token not caught: %v", err)
	}
}

func TestCheckerCatchesDuplicatedOwner(t *testing.T) {
	s := runToCompletion(t)
	// Give a second node a forged owner token for a block someone holds.
	l := tokenHolder(t, s)
	for _, n := range s.Nodes {
		l2 := n.Shared().L2
		if l2.Lookup(l.Addr) == nil {
			forged, _ := l2.Allocate(l.Addr)
			forged.Tok = token.State{Count: 1, Owner: true, Valid: true}
			break
		}
	}
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("forged owner token not caught")
	}
}

func TestCheckerCatchesLostWrite(t *testing.T) {
	s := runToCompletion(t)
	l := tokenHolder(t, s)
	// Find a written block and roll its version back, as if a store were
	// lost.
	var victim *cache.Line
	for _, n := range s.Nodes {
		n.Shared().L2.ForEach(func(l *cache.Line) {
			if victim == nil && l.Version > 0 && !l.Tok.Zero() {
				victim = l
			}
		})
	}
	if victim == nil {
		t.Skip("no written block resident at end of run")
	}
	_ = l
	victim.Version--
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "serialisation") {
		t.Fatalf("lost write not caught: %v", err)
	}
}

func TestCheckerCatchesUnquiescedNode(t *testing.T) {
	s := runToCompletion(t)
	// Fabricate a stuck home entry.
	e := s.Nodes[0].Home().Entry(0xdead_f000)
	e.Busy = true
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "quiesced") {
		t.Fatalf("stuck home entry not caught: %v", err)
	}
}
