// Package fault injects deterministic adversarial behavior into the
// interconnect: per-link delay jitter (which reorders messages between
// links), transient link-degradation windows, and periodic congestion
// bursts. The paper's robustness claim is that token counting plus
// tenure timeouts stay correct and live on unordered, misbehaving
// networks; this package is how the simulator misbehaves on purpose.
//
// Everything is a pure function of the plan seed and the traversal
// arguments. Each link owns an independent splitmix64-style stream
// keyed by (plan seed, link index, per-link draw counter), so the
// jitter a link hands out depends only on how many messages crossed
// that link, never on global delivery order. That keeps faulted runs
// byte-identical across sweep worker counts and across Reset-reused
// versus freshly built systems.
package fault

import "fmt"

// Plan describes deterministic interconnect fault injection: a seeded
// schedule of per-hop delay jitter, link-degradation windows, and
// congestion bursts applied to every message crossing the torus. It is
// a wire type (the patch facade's FaultPlan, carried in a Config's
// fault_plan), so its JSON names are explicit and stable.
//
// A nil plan, and any plan whose parameters inject nothing (zero
// jitter, no live window, no live burst), are true no-ops: Canonical
// returns nil for them, the interconnect builds no injector, and
// results are bit-identical to an unfaulted run.
type Plan struct {
	// Seed keys every fault stream. It is deliberately separate from
	// the workload seed: two configs that differ only in workload seed
	// share identical fault weather, so paired comparisons isolate the
	// workload axis.
	Seed int64 `json:"seed,omitempty"`
	// HopJitter adds a per-message extra delay drawn uniformly from
	// [0, HopJitter] cycles on every link crossing. Different links
	// draw different values, so multi-hop messages race and reorder.
	HopJitter int `json:"hop_jitter,omitempty"`
	// Degrade lists cycle windows during which affected links run with
	// their hop latency multiplied.
	Degrade []Window `json:"degrade,omitempty"`
	// Burst, when non-nil, models periodic congestion. Link phases are
	// staggered by the seed so bursts do not align across the machine.
	Burst *Burst `json:"burst,omitempty"`
}

// Window is a transient link-degradation interval.
type Window struct {
	// FromCycle and ToCycle bound the window, inclusive on both ends.
	FromCycle uint64 `json:"from_cycle"`
	ToCycle   uint64 `json:"to_cycle"`
	// Multiplier scales the hop latency of affected links while the
	// window is open; 1 is a no-op.
	Multiplier int `json:"multiplier"`
	// LinkFraction selects the deterministic subset of links the window
	// degrades: 0.5 hits roughly half of them, chosen by hashing
	// (seed, window, link). Both 0 and 1 mean every link.
	LinkFraction float64 `json:"link_fraction,omitempty"`
}

// Burst is a periodic congestion episode: ExtraCycles are added to
// every crossing of a link during the first Duration cycles of every
// Period-cycle interval. A zero Period, Duration or ExtraCycles
// disables the burst.
type Burst struct {
	Period      uint64 `json:"period"`
	Duration    uint64 `json:"duration"`
	ExtraCycles int    `json:"extra_cycles"`
}

// Canonical returns only what the plan injects: the live degrade
// windows in their original order (the injector salts each by its
// index among them), with LinkFraction 1 written as 0 (both select
// every link), and the burst only if it is live. It returns nil when
// the plan injects nothing, so "no plan", "zero plan" and "plan with
// only a seed" are one configuration: they share a fingerprint and
// skip the injector entirely. The result never aliases p.
func (p *Plan) Canonical() *Plan {
	if p == nil {
		return nil
	}
	c := &Plan{Seed: p.Seed, HopJitter: p.HopJitter}
	for _, w := range p.Degrade {
		if w.Multiplier <= 1 || w.ToCycle < w.FromCycle {
			continue // injects nothing
		}
		if w.LinkFraction == 1 {
			w.LinkFraction = 0
		}
		c.Degrade = append(c.Degrade, w)
	}
	if b := p.Burst; b != nil && b.Period > 0 && b.Duration > 0 && b.ExtraCycles > 0 {
		live := *b
		c.Burst = &live
	}
	if c.HopJitter <= 0 && len(c.Degrade) == 0 && c.Burst == nil {
		return nil
	}
	return c
}

// Enabled reports whether the plan injects anything at all. The
// interconnect builds no injector for a plan that does not.
func (p *Plan) Enabled() bool { return p.Canonical() != nil }

// MaxDelay bounds every per-crossing fault parameter. Well past any
// latency worth simulating, but small enough that a hostile plan
// cannot overflow cycle arithmetic or wedge the watchdog.
const MaxDelay = 1 << 20

// Validate checks the plan's parameter envelope: jitter and burst
// extra cycles in [0, MaxDelay], at most 64 windows, each with a
// multiplier in [1, MaxDelay], FromCycle <= ToCycle and a link
// fraction in [0, 1], and a burst no longer than its period. A nil plan
// is valid. The error names the offending field by its wire name.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.HopJitter < 0 || p.HopJitter > MaxDelay {
		return fmt.Errorf("hop_jitter %d outside [0, %d]", p.HopJitter, MaxDelay)
	}
	if len(p.Degrade) > 64 {
		return fmt.Errorf("%d degrade windows (max 64)", len(p.Degrade))
	}
	for i, w := range p.Degrade {
		if w.Multiplier < 1 || w.Multiplier > MaxDelay {
			return fmt.Errorf("degrade[%d] multiplier %d outside [1, %d]", i, w.Multiplier, MaxDelay)
		}
		if w.FromCycle > w.ToCycle {
			return fmt.Errorf("degrade[%d] window [%d, %d] is inverted", i, w.FromCycle, w.ToCycle)
		}
		if !(w.LinkFraction >= 0 && w.LinkFraction <= 1) {
			return fmt.Errorf("degrade[%d] link_fraction %g outside [0, 1]", i, w.LinkFraction)
		}
	}
	if b := p.Burst; b != nil {
		if b.ExtraCycles < 0 || b.ExtraCycles > MaxDelay {
			return fmt.Errorf("burst extra_cycles %d outside [0, %d]", b.ExtraCycles, MaxDelay)
		}
		if b.Duration > b.Period {
			return fmt.Errorf("burst duration %d exceeds period %d", b.Duration, b.Period)
		}
	}
	return nil
}

// mix64 is the splitmix64 output permutation: a cheap, well-distributed
// bijection on 64-bit words used to derive per-link salts and to step
// the per-link jitter streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector evaluates a Plan over a dense link-index space. All state is
// per-link, so Delay for one link is independent of traffic on every
// other link. The zero Injector is not usable; construct with New.
type Injector struct {
	plan Plan

	salt  []uint64 // per-link stream key
	ctr   []uint64 // per-link draw counter (jitter stream position)
	phase []uint64 // per-link burst phase offset in [0, Period)
	// affected[w] is a bitset over link indices selected by window w's
	// LinkFraction.
	affected [][]uint64
}

// New builds an injector for plan over numLinks dense link indices.
// The caller is expected to have validated the plan (Validate); the
// injector reads only the plan's canonical form.
func New(plan Plan, numLinks int) *Injector {
	inj := &Injector{}
	inj.Reset(plan, numLinks)
	return inj
}

// Reset re-keys the injector in place for a reused network, restoring
// the exact state New would produce: draw counters rewind to zero so a
// Reset system replays identical fault weather.
func (inj *Injector) Reset(plan Plan, numLinks int) {
	inj.plan = Plan{}
	if c := plan.Canonical(); c != nil {
		inj.plan = *c
	}
	if cap(inj.salt) < numLinks {
		inj.salt = make([]uint64, numLinks)
		inj.ctr = make([]uint64, numLinks)
		inj.phase = make([]uint64, numLinks)
	}
	inj.salt = inj.salt[:numLinks]
	inj.ctr = inj.ctr[:numLinks]
	inj.phase = inj.phase[:numLinks]
	seed := uint64(inj.plan.Seed)
	for li := 0; li < numLinks; li++ {
		inj.salt[li] = mix64(seed ^ mix64(uint64(li)+1))
		inj.ctr[li] = 0
		if b := inj.plan.Burst; b != nil {
			inj.phase[li] = inj.salt[li] % b.Period
		} else {
			inj.phase[li] = 0
		}
	}
	inj.affected = inj.affected[:0]
	words := (numLinks + 63) / 64
	for wi, w := range inj.plan.Degrade {
		bits := make([]uint64, words)
		// A window's link subset is chosen by hashing (seed, window
		// index, link index) against the fraction threshold, so it is
		// stable under Reset and independent of traffic.
		wsalt := mix64(seed ^ mix64(uint64(wi)+0x77))
		var threshold uint64 = ^uint64(0)
		if w.LinkFraction > 0 && w.LinkFraction < 1 {
			threshold = uint64(w.LinkFraction * float64(1<<63) * 2)
		}
		for li := 0; li < numLinks; li++ {
			if mix64(wsalt^mix64(uint64(li)+1)) <= threshold {
				bits[li/64] |= 1 << (li % 64)
			}
		}
		inj.affected = append(inj.affected, bits)
	}
}

// Delay returns the extra cycles injected for one crossing of link li
// starting at cycle now, where hop is the configured base hop latency.
// It never allocates. Each call advances link li's jitter stream by one
// draw; no other link's stream is touched.
func (inj *Injector) Delay(li int, now, hop uint64) uint64 {
	var extra uint64
	if j := inj.plan.HopJitter; j > 0 {
		draw := mix64(inj.salt[li] + inj.ctr[li])
		inj.ctr[li]++
		extra = draw % (uint64(j) + 1)
	}
	for wi, w := range inj.plan.Degrade {
		if now < w.FromCycle || now > w.ToCycle {
			continue
		}
		if inj.affected[wi][li/64]&(1<<(li%64)) == 0 {
			continue
		}
		extra += uint64(w.Multiplier-1) * hop
	}
	if b := inj.plan.Burst; b != nil {
		if (now+inj.phase[li])%b.Period < b.Duration {
			extra += uint64(b.ExtraCycles)
		}
	}
	return extra
}
