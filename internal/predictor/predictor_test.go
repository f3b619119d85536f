package predictor

import (
	"fmt"
	"testing"

	"patch/internal/msg"
)

// newPredictor builds node self's predictor of variant v in an n-core
// system, with the broadcast set protocol.Base.OthersExcept gives it.
func newPredictor(v Variant, self msg.NodeID, n int) *Predictor {
	var others []msg.NodeID
	for i := 0; i < n; i++ {
		if msg.NodeID(i) != self {
			others = append(others, msg.NodeID(i))
		}
	}
	p := New(self, others)
	p.Reset(v)
	return p
}

func TestNonePredictsNothing(t *testing.T) {
	p := newPredictor(VariantNone, 0, 16)
	p.ObserveResponse(0x1000, 3)
	if got := p.Predict(0x1000); got != nil {
		t.Fatalf("None predicted %v", got)
	}
}

func TestAllPredictsEveryoneElse(t *testing.T) {
	// All-NonAdaptive differs from All only in delivery, which the node
	// decides: it predicts the same broadcast.
	for _, v := range []Variant{VariantAll, VariantAllNonAdaptive} {
		p := newPredictor(v, 5, 8)
		got := p.Predict(0x40)
		if len(got) != 7 {
			t.Fatalf("%v predicted %d nodes", v, len(got))
		}
		for _, n := range got {
			if n == 5 {
				t.Fatalf("%v included self", v)
			}
		}
		if p.Broadcasts != 1 || p.Predictions != 1 {
			t.Fatalf("%v: stats not recorded", v)
		}
	}
}

func TestOwnerColdMissPredictsNothing(t *testing.T) {
	p := newPredictor(VariantOwner, 0, 16)
	if got := p.Predict(0x9000); got != nil {
		t.Fatalf("cold owner prediction %v", got)
	}
}

func TestOwnerLearnsFromResponses(t *testing.T) {
	p := newPredictor(VariantOwner, 0, 16)
	p.ObserveResponse(0x2000, 7)
	got := p.Predict(0x2000)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("predicted %v, want [7]", got)
	}
	// A newer response supersedes.
	p.ObserveResponse(0x2000, 9)
	if got := p.Predict(0x2000); len(got) != 1 || got[0] != 9 {
		t.Fatalf("predicted %v, want [9]", got)
	}
}

func TestOwnerNeverPredictsSelf(t *testing.T) {
	p := newPredictor(VariantOwner, 4, 16)
	p.ObserveResponse(0x2000, 4) // self-observation ignored
	if got := p.Predict(0x2000); got != nil {
		t.Fatalf("predicted %v, want nil", got)
	}
}

func TestMacroblockSharing(t *testing.T) {
	p := newPredictor(VariantOwner, 0, 16)
	p.ObserveResponse(0x2000, 7)
	// 0x2040 is in the same 1024-byte macroblock as 0x2000.
	if got := p.Predict(0x2040); len(got) != 1 || got[0] != 7 {
		t.Fatalf("macroblock sharing failed: %v", got)
	}
	// 0x2400 is the next macroblock: no prediction.
	if got := p.Predict(0x2400); got != nil {
		t.Fatalf("cross-macroblock leak: %v", got)
	}
}

func TestBroadcastIfSharedEscalates(t *testing.T) {
	p := newPredictor(VariantBroadcastIfShared, 0, 16)
	// One remote party: owner-style prediction.
	p.ObserveResponse(0x3000, 3)
	if got := p.Predict(0x3000); len(got) != 1 || got[0] != 3 {
		t.Fatalf("unshared block predicted %v", got)
	}
	// A second distinct remote party marks the macroblock shared.
	p.ObserveRequest(0x3000, 5, false)
	got := p.Predict(0x3000)
	if len(got) != 15 {
		t.Fatalf("shared block predicted %d nodes, want broadcast", len(got))
	}
}

func TestBroadcastIfSharedSinglePartyStaysNarrow(t *testing.T) {
	p := newPredictor(VariantBroadcastIfShared, 0, 16)
	p.ObserveRequest(0x3000, 5, false)
	p.ObserveRequest(0x3000, 5, false)
	p.ObserveRequest(0x3000, 5, false)
	if got := p.Predict(0x3000); len(got) > 1 {
		t.Fatalf("single-party macroblock escalated to %d destinations", len(got))
	}
}

func TestTableConflictEvicts(t *testing.T) {
	p := newPredictor(VariantOwner, 0, 16)
	p.ObserveResponse(0x2000, 7)
	// Same table slot, different tag: 8192 entries * 1024 bytes apart.
	conflicting := msg.Addr(0x2000 + TableEntries*MacroblockBytes)
	p.ObserveResponse(conflicting, 9)
	if got := p.Predict(0x2000); got != nil {
		t.Fatalf("stale prediction after conflict: %v", got)
	}
	if got := p.Predict(conflicting); len(got) != 1 || got[0] != 9 {
		t.Fatalf("new entry not installed: %v", got)
	}
}

func TestVariantStrings(t *testing.T) {
	for v := VariantNone; v <= VariantAllNonAdaptive; v++ {
		if v.String() == fmt.Sprintf("Variant(%d)", int(v)) {
			t.Fatalf("variant %d has no name", int(v))
		}
	}
}
