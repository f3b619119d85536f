package patch

import "patch/internal/fault"

// FaultPlan describes deterministic interconnect fault injection: a
// seeded schedule of per-hop delay jitter, link-degradation windows,
// and congestion bursts applied to every message crossing the torus.
//
// The schedule is a pure function of (Seed, link index, crossing
// count): each link draws from its own salted counter stream, so the
// delays a link hands out do not depend on global delivery order and a
// faulted configuration is exactly as deterministic as a fault-free
// one — same config, same results, byte for byte, at any sweep worker
// count. A nil plan, and any plan whose parameters inject nothing
// (zero jitter, no effective windows, no burst), are true no-ops: the
// simulator builds no injector and results are bit-identical to an
// unfaulted run.
//
// Faulted runs also enable the mid-run invariant audit by default
// (token conservation, single-writer, home queue bounds), because
// adversarial delay is exactly what shakes transient protocol bugs
// loose; a violation surfaces as a *sim.RunError with a structured
// diagnostic dump.
type FaultPlan = fault.Plan

// FaultWindow is one transient link-degradation window: while the
// current cycle lies in [FromCycle, ToCycle], affected links multiply
// their hop latency by Multiplier.
type FaultWindow = fault.Window

// CongestionBurst is a periodic congestion episode: every Period
// cycles each link stalls messages by ExtraCycles for Duration cycles,
// with a per-link phase offset so bursts are staggered across the
// machine rather than globally synchronised.
type CongestionBurst = fault.Burst
