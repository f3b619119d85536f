package sim

import (
	"fmt"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
	"patch/internal/token"
)

// auditTask re-verifies mid-run invariants every Config.auditEvery
// cycles: the end-of-run checks only see the quiesced final state, so a
// protocol bug whose damage is transient (a token duplicated and later
// re-merged, an unbounded home queue that eventually drains) would
// otherwise go unnoticed. Fault-injected runs enable this by default —
// adversarial delay is exactly what shakes such transients loose.
//
// The task reads simulator state but never mutates it, so scheduling it
// cannot change a run's results; it stops rescheduling once the run
// finished, a violation was found, or the event queue drained.
type auditTask struct{ s *System }

// Fire implements event.Task.
func (t *auditTask) Fire(event.Time) {
	s := t.s
	if s.auditErr != nil || s.finished == s.Cfg.Cores {
		return
	}
	if err := s.auditNow(); err != nil {
		s.auditErr = err
		return
	}
	if s.Eng.Len() == 0 {
		// Drained queue: the run is completing or deadlocking this
		// instant; keeping the queue alive would mask the deadlock.
		return
	}
	s.Eng.After(event.Time(s.Cfg.auditEvery), t)
}

// auditNow checks every invariant that must hold at any instant, not
// only at quiescence. It returns a *RunError with diagnostics attached.
func (s *System) auditNow() error {
	if err := s.checkAnyInstant(); err != nil {
		return s.failRun(FailAudit, err.Error())
	}
	return nil
}

// checkAnyInstant runs the invariants that must hold at any instant, not
// only at quiescence: the auditor's token-flow errors, token
// conservation (Rule #1) over every holder, single-writer/many-readers,
// and the home-queue bound. The mid-run audit and CheckInvariants both
// run exactly this list.
func (s *System) checkAnyInstant() error {
	if s.auditor != nil {
		if err := s.auditor.Err(); err != nil {
			return err
		}
	}
	if t := s.tokens(); t > 0 {
		if err := token.CheckConservation(t, s.tokenHolders()); err != nil {
			return err
		}
	}
	if err := s.checkSingleWriter(); err != nil {
		return err
	}
	return s.checkQueueDepths()
}

// tokenHolders lists everywhere a block's tokens can be: every cache
// and home, the messages nodes hold off the wire, and, with checks on,
// the network (the auditor's in-flight count).
func (s *System) tokenHolders() []token.Holder {
	holders := make([]token.Holder, 0, 3*len(s.Nodes)+1)
	for _, n := range s.Nodes {
		holders = append(holders, n.Shared().L2, n.Home(), parkedTokens{n.Shared()})
	}
	if s.auditor != nil {
		holders = append(holders, s.auditor)
	}
	return holders
}

// parkedTokens is the token.Holder over the messages a node holds off
// the wire (protocol.Base.Parked): delayed home sends, whose tokens were
// deducted from their holder when the message was built, and delivered
// writebacks and token returns still in their home's directory lookup,
// which the auditor stopped counting at delivery. No other holder sees
// these tokens.
type parkedTokens struct{ b *protocol.Base }

// TokenHoldings implements token.Holder.
func (p parkedTokens) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	p.b.Parked(func(_ event.Time, m *msg.Message) {
		if m.Tokens != 0 || m.Owner {
			fn(m.Addr, m.Tokens, m.Owner)
		}
	})
}

// checkQueueDepths bounds the home request queues: every core can have
// only a handful of requests outstanding per block, so a queue that
// grows past a small multiple of the core count means requests are
// being re-queued without progress (a livelock signature the watchdog
// would take two billion cycles to call).
func (s *System) checkQueueDepths() error {
	bound := 4*s.Cfg.Cores + 16
	var err error
	for i, n := range s.Nodes {
		n.Home().ForEach(func(e *directory.Entry) {
			if len(e.Queue) > bound && err == nil {
				err = fmt.Errorf("sim: home %d queue for %#x holds %d requests (bound %d)",
					i, uint64(e.Addr), len(e.Queue), bound)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
