package patch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// fingerprintVersion is bumped whenever the canonical encoding below
// changes meaning, so stale cache entries written by an older scheme
// can never be confused with current ones.
const fingerprintVersion = "patch-config-v1"

// Fingerprint returns a stable content address for the configuration:
// the hex SHA-256 of a canonical key=value encoding. Two configurations
// share a fingerprint exactly when they describe the same simulation,
// so the sweep service uses it as the result-cache key — determinism
// (a given fingerprint always produces byte-identical results) is what
// makes that cache exact rather than approximate.
//
// Canonical means:
//
//   - Fields are written in a fixed, explicit order with fixed names,
//     so reordering or renaming Config's Go fields cannot silently
//     change the hash (a golden test pins one known fingerprint).
//   - Documented zero-value defaults are normalised to their effective
//     values (0 cores = 64, empty workload = "micro", coarseness 0 =
//     1, bandwidth 0 = the paper's 16 B/cycle, tenure factor 0 = 2x),
//     so spelling a default explicitly does not split the cache.
//   - Variant is only significant under PATCH (the other protocols
//     ignore it), and bandwidth collapses to "unbounded" when link
//     contention is off.
//
// Seed is part of the fingerprint: each seeded replica of a sweep cell
// is its own cacheable simulation. SkipChecks is not: it selects
// end-of-run verification, never results. TraceFile participates by
// path only — the trace's bytes are not hashed — so cached results are
// trustworthy only while trace files are immutable; prefer fresh paths
// over editing a trace in place. When TraceFile is set the Workload
// name is normalised away entirely: the trace supplies every reference,
// the generator is never built (Validate skips the unknown-workload
// check too), so two configs replaying the identical trace must not
// split the cache over a field the simulation ignores.
func (c Config) Fingerprint() string {
	cores := c.Cores
	if cores == 0 {
		cores = 64
	}
	workload := c.Workload
	if c.TraceFile != "" {
		workload = ""
	} else if workload == "" {
		workload = "micro"
	}
	coarseness := c.DirectoryCoarseness
	if coarseness == 0 {
		coarseness = 1
	}
	bandwidth := "unbounded"
	if !c.UnboundedBandwidth {
		bw := c.BandwidthBytesPerKiloCycle
		if bw == 0 {
			bw = 16000
		}
		bandwidth = fmt.Sprintf("%d", bw)
	}
	tenure := c.TenureTimeoutFactor
	if tenure == 0 {
		tenure = 2
	}
	variant := "-"
	if c.Protocol == PATCH {
		variant = c.Variant.String()
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fingerprintVersion)
	fmt.Fprintf(&b, "protocol=%s\n", c.Protocol.String())
	fmt.Fprintf(&b, "variant=%s\n", variant)
	fmt.Fprintf(&b, "cores=%d\n", cores)
	fmt.Fprintf(&b, "workload=%s\n", workload)
	fmt.Fprintf(&b, "trace_file=%s\n", c.TraceFile)
	fmt.Fprintf(&b, "ops_per_core=%d\n", c.OpsPerCore)
	fmt.Fprintf(&b, "warmup_ops=%d\n", c.WarmupOps)
	fmt.Fprintf(&b, "seed=%d\n", c.Seed)
	fmt.Fprintf(&b, "bandwidth=%s\n", bandwidth)
	fmt.Fprintf(&b, "coarseness=%d\n", coarseness)
	fmt.Fprintf(&b, "tenure_timeout_factor=%g\n", tenure)
	fmt.Fprintf(&b, "no_deact_window=%t\n", c.NoDeactWindow)
	fmt.Fprintf(&b, "max_cycles=%d\n", c.MaxCycles)
	// Fault lines are appended only for a plan that actually injects
	// something, so every fault-free spelling (nil plan, zero plan,
	// seed-only plan, dead windows) keeps the pre-fault golden hash and
	// shares cache entries with unfaulted configs.
	if fp := c.FaultPlan.Canonical(); fp != nil {
		fmt.Fprintf(&b, "fault_seed=%d\n", fp.Seed)
		fmt.Fprintf(&b, "fault_hop_jitter=%d\n", fp.HopJitter)
		for _, w := range fp.Degrade {
			fmt.Fprintf(&b, "fault_degrade=%d:%d:%d:%g\n", w.FromCycle, w.ToCycle, w.Multiplier, w.LinkFraction)
		}
		if bu := fp.Burst; bu != nil {
			fmt.Fprintf(&b, "fault_burst=%d:%d:%d\n", bu.Period, bu.Duration, bu.ExtraCycles)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
