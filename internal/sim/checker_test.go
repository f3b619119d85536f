package sim

import (
	"fmt"
	"strings"
	"testing"

	"patch/internal/cache"
	"patch/internal/msg"
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

// TestCheckerCatchesHolderIndexDrift breaks the L2 holder index both
// ways the end-of-run check must see: lines whose bits are missing, and
// a bit naming a node whose L2 does not hold the block.
func TestCheckerCatchesHolderIndexDrift(t *testing.T) {
	s := runToCompletion(t)
	s.Env.Holders.Clear()
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "holder index sets 0 bits") {
		t.Fatalf("missing holder bits not caught: %v", err)
	}

	s = runToCompletion(t)
	l2 := s.Nodes[0].Shared().L2
	a := msg.Addr(0x7fff_f000)
	if l2.Lookup(a) != nil {
		t.Fatalf("node 0 already holds %#x", uint64(a))
	}
	stray := cache.New(cache.Config{SizeBytes: 1 << 10, Ways: 2, BlockSize: msg.BlockBytes})
	stray.Join(s.Env.Holders, 0)
	stray.Allocate(a)
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "holder index names node 0") {
		t.Fatalf("stray holder bit not caught: %v", err)
	}
}

// TestSingleWriterNamesSmallestBlock forges violations on two blocks,
// the larger address walked first: two writable copies of one, a
// writable copy beside a shared one of the other. The check must name
// the smaller address.
func TestSingleWriterNamesSmallestBlock(t *testing.T) {
	s := runToCompletion(t)
	hi, lo := msg.Addr(0x7fff_f000), msg.Addr(0x7fff_e000)
	forge := func(node int, a msg.Addr, st token.State) {
		l, _ := s.Nodes[node].Shared().L2.Allocate(a)
		l.Tok = st
	}
	m := token.State{Count: s.Env.Tokens, Owner: true, Dirty: true, Valid: true}
	forge(0, hi, m)
	forge(1, hi, m)
	forge(2, lo, m)
	forge(3, lo, token.State{Count: 1, Valid: true})
	err := s.checkSingleWriter()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("writable copy of %#x coexists", uint64(lo))) {
		t.Fatalf("got %v, want the writable copy of %#x named", err, uint64(lo))
	}
}

// BenchmarkCheckInvariants prices the end-of-run checks (the mid-run
// audit's list plus quiescence, in-flight tokens and write
// serialisation) on a 64-core oltp system run once with checks on.
func BenchmarkCheckInvariants(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Directory", Config{Protocol: Directory}},
		{"PATCH-All", Config{Protocol: PATCH, Policy: predictor.All, BestEffort: true}},
		{"TokenB", Config{Protocol: TokenB}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			cfg.Cores, cfg.OpsPerCore, cfg.WarmupOps, cfg.Workload, cfg.Seed = 64, 50, 125, "oltp", 1
			s, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
