package sim

import (
	"fmt"
	"sort"

	"patch/internal/addrmap"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
)

// auditTask re-verifies mid-run invariants every Config.AuditEvery
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
	s.Eng.AfterTask(event.Time(s.Cfg.AuditEvery), t)
}

// auditNow checks every invariant that must hold at any instant, not
// only at quiescence. It returns a *RunError with diagnostics attached.
func (s *System) auditNow() error {
	if s.auditor != nil {
		if err := s.auditor.Err(); err != nil {
			return s.failRun(FailAudit, err.Error())
		}
		if err := s.auditConservation(); err != nil {
			return err
		}
	}
	if err := s.auditQueueDepths(); err != nil {
		return err
	}
	if err := s.checkSingleWriter(); err != nil {
		return s.failRun(FailAudit, err.Error())
	}
	return nil
}

// auditConservation verifies Rule #1 mid-run: for every touched block,
// tokens held by caches and homes, plus tokens on the wire (auditor),
// plus tokens in messages a node holds off the wire (Parked: delayed
// home sends, deducted from their holder at message build time, and
// delivered writebacks and token returns still in their home's
// directory lookup — neither visible to any holder nor to the auditor)
// must sum to exactly Env.Tokens.
func (s *System) auditConservation() error {
	sums := new(addrmap.Map[int])
	held := func(a msg.Addr, count int, _ bool) { *sums.Ptr(a) += count }
	parked := func(_ event.Time, m *msg.Message) {
		if m.Tokens != 0 {
			*sums.Ptr(m.Addr) += m.Tokens
		}
	}
	for _, n := range s.Nodes {
		b := n.Shared()
		b.L2.TokenHoldings(held)
		n.Home().TokenHoldings(held)
		b.Parked(parked)
	}
	s.auditor.InFlightByBlock(func(a msg.Addr, count, _ int) { *sums.Ptr(a) += count })
	var bad []msg.Addr
	sums.ForEach(func(a msg.Addr, p *int) {
		if *p != s.Env.Tokens {
			bad = append(bad, a)
		}
	})
	if len(bad) == 0 {
		return nil
	}
	// Report the smallest violating address so the error is independent
	// of accumulation order.
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	got, _ := sums.Get(bad[0])
	return s.failRun(FailAudit, fmt.Sprintf(
		"token conservation violated at %#x: %d tokens visible, want %d (%d blocks violate)",
		uint64(bad[0]), got, s.Env.Tokens, len(bad)))
}

// auditQueueDepths bounds the home request queues: every core can have
// only a handful of requests outstanding per block, so a queue that
// grows past a small multiple of the core count means requests are
// being re-queued without progress (a livelock signature the watchdog
// would take two billion cycles to call).
func (s *System) auditQueueDepths() error {
	bound := 4*s.Cfg.Cores + 16
	var err error
	check := func(home int, dir *directory.Directory) {
		dir.ForEach(func(e *directory.Entry) {
			if len(e.Queue) > bound && err == nil {
				err = s.failRun(FailAudit, fmt.Sprintf(
					"home %d queue for %#x holds %d requests (bound %d)",
					home, uint64(e.Addr), len(e.Queue), bound))
			}
		})
	}
	for i, n := range s.Nodes {
		check(i, n.Home())
		if err != nil {
			return err
		}
	}
	return nil
}
