// Package trace provides protocol-level observability: a message tap
// that records coherence traffic (optionally filtered by block), a
// per-block transaction history for debugging races, and an online
// token-conservation auditor that tracks tokens in flight so Rule #1 can
// be checked at any instant, not just at quiescence.
package trace

import (
	"fmt"
	"io"
	"slices"

	"patch/internal/event"
	"patch/internal/msg"
)

// Record is one observed message.
type Record struct {
	At  event.Time
	Msg msg.Message
}

// Tracer records messages passing through the interconnect. The zero
// value records nothing; configure with Filter/Writer/Keep.
type Tracer struct {
	// Filter selects which messages to record; nil records everything.
	Filter func(*msg.Message) bool

	// W, when non-nil, receives one formatted line per recorded message.
	W io.Writer

	// Keep bounds the in-memory record list (0 = unbounded). Once it is
	// full, each new record overwrites the oldest.
	Keep int

	records []Record // a ring once full; next is its oldest record
	next    int
	dropped uint64
}

// ForBlock returns a filter matching a single block address.
func ForBlock(a msg.Addr) func(*msg.Message) bool {
	return func(m *msg.Message) bool { return m.Addr == a }
}

// Observe records one message (called from the network tap).
func (t *Tracer) Observe(now event.Time, m *msg.Message) {
	if t.Filter != nil && !t.Filter(m) {
		return
	}
	if t.W != nil {
		fmt.Fprintf(t.W, "%8d  %v\n", now, m)
	}
	if t.Keep > 0 && len(t.records) >= t.Keep {
		t.records[t.next] = Record{now, *m}
		t.next = (t.next + 1) % len(t.records)
		t.dropped++
		return
	}
	t.records = append(t.records, Record{now, *m})
}

// Records returns a copy of the retained records, oldest first.
func (t *Tracer) Records() []Record {
	return slices.Concat(t.records[t.next:], t.records[:t.next])
}

// Dropped reports how many records fell out of the retention window.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// History renders the retained records for one block as a readable
// transaction timeline.
func (t *Tracer) History(a msg.Addr, w io.Writer) {
	fmt.Fprintf(w, "history of block %#x:\n", uint64(a))
	for _, r := range t.Records() {
		if r.Msg.Addr == a {
			fmt.Fprintf(w, "  %8d  %v\n", r.At, &r.Msg)
		}
	}
}

// Auditor is an online token-conservation monitor. It watches every
// message carrying tokens enter and leave the network and maintains the
// per-block in-flight token count, so that at any instant
//
//	held(caches) + held(homes) + inflight == T
//
// can be verified. Hook Sent into the network tap and call Delivered
// from a delivery wrapper.
type Auditor struct {
	Total int // tokens per block (T)

	inflight map[msg.Addr]inflightTokens
	// Violations collects detected anomalies (negative in-flight counts,
	// duplicate in-flight owner tokens).
	Violations []string
}

type inflightTokens struct {
	count  int
	owners int
}

// NewAuditor creates an auditor for T tokens per block.
func NewAuditor(total int) *Auditor {
	return &Auditor{Total: total, inflight: make(map[msg.Addr]inflightTokens)}
}

// Reset clears all recorded state for total tokens per block, so a
// reused simulation keeps its auditor (and the map capacity it grew)
// across runs.
func (a *Auditor) Reset(total int) {
	a.Total = total
	clear(a.inflight)
	a.Violations = nil
}

// Sent notes a token-carrying message entering the network.
func (a *Auditor) Sent(m *msg.Message) {
	if m.Tokens == 0 && !m.Owner {
		return
	}
	t := a.inflight[m.Addr]
	t.count += m.Tokens
	if m.Owner {
		t.owners++
		if t.owners > 1 {
			a.Violations = append(a.Violations,
				fmt.Sprintf("block %#x: %d owner tokens in flight", uint64(m.Addr), t.owners))
		}
	}
	a.inflight[m.Addr] = t
}

// Delivered notes a token-carrying message leaving the network.
func (a *Auditor) Delivered(m *msg.Message) {
	if m.Tokens == 0 && !m.Owner {
		return
	}
	t := a.inflight[m.Addr]
	t.count -= m.Tokens
	if m.Owner {
		t.owners--
	}
	if t.count < 0 || t.owners < 0 {
		a.Violations = append(a.Violations,
			fmt.Sprintf("block %#x: negative in-flight tokens (%d, owners %d)", uint64(m.Addr), t.count, t.owners))
	}
	if t.count == 0 && t.owners == 0 {
		delete(a.inflight, m.Addr)
	} else {
		a.inflight[m.Addr] = t
	}
}

// TokenHoldings implements token.Holder over the tokens currently in
// flight, so conservation checks count the wire like any other holder.
// A block with more than one owner token in flight has already been
// recorded as a violation (Err), so the owner flag says whether any is.
// Iteration order is unspecified; token.CheckConservation's result does
// not depend on it.
func (a *Auditor) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	for addr, t := range a.inflight {
		fn(addr, t.count, t.owners > 0)
	}
}

// InFlightTotals summarises the network's token load: how many blocks
// have tokens in flight and the total token count, for diagnostics.
func (a *Auditor) InFlightTotals() (blocks, tokens int) {
	for _, t := range a.inflight {
		tokens += t.count
	}
	return len(a.inflight), tokens
}

// QuiescentOK reports whether nothing is in flight (call once the event
// queue drains; leftover in-flight state means a message was lost).
func (a *Auditor) QuiescentOK() bool { return len(a.inflight) == 0 }

// Err summarises violations.
func (a *Auditor) Err() error {
	if len(a.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("trace: %d token-flow violations, first: %s", len(a.Violations), a.Violations[0])
}
