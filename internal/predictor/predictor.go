// Package predictor implements the destination-set predictors PATCH uses
// to pick recipients for direct requests (§6). The predictors are taken
// from the prior work the paper cites [19]: an Owner predictor (one extra
// destination) and a Broadcast-If-Shared predictor (all cores for
// recently shared blocks), plus the trivial None and All policies. The
// table-based predictors have 8192 entries indexed by 1024-byte
// macroblock, as in the paper.
package predictor

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"patch/internal/msg"
)

// Variant names a PATCH configuration from the paper's evaluation (§6):
// the prediction policy its direct requests follow and, for the last,
// their delivery class. PATCH's node lowers it (package core); the run
// configuration and the patch facade carry it under their own names.
type Variant int

const (
	// VariantNone sends no direct requests (PATCH-NONE), which the
	// paper shows performs like DIRECTORY.
	VariantNone Variant = iota
	// VariantOwner predicts a single owner destination (PATCH-OWNER).
	VariantOwner
	// VariantBroadcastIfShared broadcasts for recently shared blocks
	// (PATCH-BROADCASTIFSHARED).
	VariantBroadcastIfShared
	// VariantAll broadcasts every request best-effort (PATCH-ALL).
	VariantAll
	// VariantAllNonAdaptive broadcasts with guaranteed delivery
	// (PATCH-ALL-NONADAPTIVE), the foil for the bandwidth-adaptivity
	// experiments.
	VariantAllNonAdaptive
)

// ErrUnknownVariant reports a Variant outside the paper's five PATCH
// configurations.
var ErrUnknownVariant = errors.New("unknown PATCH variant")

func (v Variant) String() string {
	switch v {
	case VariantNone:
		return "PATCH-None"
	case VariantOwner:
		return "PATCH-Owner"
	case VariantBroadcastIfShared:
		return "PATCH-BroadcastIfShared"
	case VariantAll:
		return "PATCH-All"
	case VariantAllNonAdaptive:
		return "PATCH-All-NonAdaptive"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// MarshalJSON encodes the variant by its paper name ("PATCH-All"), so
// the wire form survives any renumbering of the constants. Its errors,
// like UnmarshalJSON's, carry the patch facade's prefix: the sweep
// service returns them in its 400 bodies.
func (v Variant) MarshalJSON() ([]byte, error) {
	if v < VariantNone || v > VariantAllNonAdaptive {
		return nil, fmt.Errorf("patch: %w: Variant(%d)", ErrUnknownVariant, int(v))
	}
	return json.Marshal(v.String())
}

// UnmarshalJSON decodes a paper name (case-insensitive) or an integer.
func (v *Variant) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for got := VariantNone; got <= VariantAllNonAdaptive; got++ {
			if strings.EqualFold(s, got.String()) {
				*v = got
				return nil
			}
		}
		return fmt.Errorf("patch: %w: %q", ErrUnknownVariant, s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("patch: %w: %s", ErrUnknownVariant, data)
	}
	got := Variant(n)
	if got < VariantNone || got > VariantAllNonAdaptive {
		return fmt.Errorf("patch: %w: Variant(%d)", ErrUnknownVariant, n)
	}
	*v = got
	return nil
}

const (
	// TableEntries and MacroblockBytes follow the paper (§8.3).
	TableEntries    = 8192
	MacroblockBytes = 1024
)

type entry struct {
	tag       uint64
	valid     bool
	lastOwner msg.NodeID
	shared    bool
	// sawRemote counts distinct remote interactions; two different remote
	// parties mark the macroblock shared.
	lastRemote msg.NodeID
}

// Predictor is one core's destination-set predictor.
type Predictor struct {
	variant Variant
	self    msg.NodeID
	table   []entry

	// others is the broadcast set and one the single-owner set, so
	// Predict allocates nothing on the hot path. Callers must treat the
	// returned slice as read-only and consume it before the next Predict.
	others []msg.NodeID
	one    [1]msg.NodeID

	Predictions uint64
	Broadcasts  uint64
}

// New creates node self's predictor. others is the node's broadcast set
// (protocol.Base.OthersExcept: every other node, ascending, which the
// interconnect recognises as a full broadcast); the predictor returns
// it read-only and never modifies it. It predicts nothing until Reset
// selects a variant.
func New(self msg.NodeID, others []msg.NodeID) *Predictor {
	return &Predictor{self: self, others: others}
}

// Reset clears all learned state and counters and follows variant v's
// prediction policy, so a reused predictor behaves exactly like a
// freshly constructed one. The table storage is retained when the new
// variant needs one.
func (p *Predictor) Reset(v Variant) {
	p.variant = v
	if v == VariantOwner || v == VariantBroadcastIfShared {
		if p.table == nil {
			p.table = make([]entry, TableEntries)
		} else {
			clear(p.table)
		}
	} else {
		p.table = nil
	}
	p.Predictions, p.Broadcasts = 0, 0
}

func (p *Predictor) slot(a msg.Addr) (*entry, uint64) {
	mb := uint64(a) / MacroblockBytes
	return &p.table[mb%TableEntries], mb
}

// Predict returns the destination set for a direct request to addr
// (never including self; nil means indirect-only).
func (p *Predictor) Predict(a msg.Addr) []msg.NodeID {
	switch p.variant {
	case VariantAll, VariantAllNonAdaptive:
		p.Predictions++
		p.Broadcasts++
		return p.others
	case VariantOwner:
		e, tag := p.slot(a)
		if !e.valid || e.tag != tag || e.lastOwner == p.self {
			return nil
		}
		p.Predictions++
		p.one[0] = e.lastOwner
		return p.one[:]
	case VariantBroadcastIfShared:
		e, tag := p.slot(a)
		if !e.valid || e.tag != tag || !e.shared {
			// Fall back to the owner prediction when not shared.
			if e.valid && e.tag == tag && e.lastOwner != p.self {
				p.Predictions++
				p.one[0] = e.lastOwner
				return p.one[:]
			}
			return nil
		}
		p.Predictions++
		p.Broadcasts++
		return p.others
	}
	return nil
}

// observe updates the macroblock entry for a remote interaction.
func (p *Predictor) observe(a msg.Addr, remote msg.NodeID, isOwner bool) {
	if p.table == nil || remote == p.self {
		return
	}
	e, tag := p.slot(a)
	if !e.valid || e.tag != tag {
		*e = entry{tag: tag, valid: true, lastOwner: remote, lastRemote: remote}
		return
	}
	if isOwner {
		e.lastOwner = remote
	}
	if e.lastRemote != remote {
		e.shared = true
	}
	e.lastRemote = remote
}

// ObserveResponse records the source of a data/ownership response: the
// likely current owner of the macroblock.
func (p *Predictor) ObserveResponse(a msg.Addr, src msg.NodeID) { p.observe(a, src, true) }

// ObserveRequest records an incoming request from another core, evidence
// that the macroblock is actively shared. A write request also predicts
// the requester as the block's next owner (it is about to collect every
// token), which is what tracks migratory data.
func (p *Predictor) ObserveRequest(a msg.Addr, requester msg.NodeID, isWrite bool) {
	p.observe(a, requester, isWrite)
}
