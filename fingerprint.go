package patch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
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
	tenure := c.TenureTimeoutFactor
	if tenure == 0 {
		tenure = 2
	}
	variant := "-"
	if c.Protocol == PATCH {
		variant = c.Variant.String()
	}

	// One key=value line per field, appended with strconv rather than
	// fmt, since every cache lookup hashes one: the bytes are those the
	// verbs %s, %d, %t and %g write (%g of a float64 is AppendFloat's
	// 'g' at the shortest precision), and refFingerprint in
	// fingerprint_test.go, the fmt encoder this replaced, pins them.
	b := make([]byte, 0, 512)
	b = append(b, fingerprintVersion+"\n"...)
	b = appendLine(b, "protocol=", c.Protocol.String())
	b = appendLine(b, "variant=", variant)
	b = appendInt(b, "cores=", int64(cores))
	b = appendLine(b, "workload=", workload)
	b = appendLine(b, "trace_file=", c.TraceFile)
	b = appendInt(b, "ops_per_core=", int64(c.OpsPerCore))
	b = appendInt(b, "warmup_ops=", int64(c.WarmupOps))
	b = appendInt(b, "seed=", c.Seed)
	if c.UnboundedBandwidth {
		b = appendLine(b, "bandwidth=", "unbounded")
	} else {
		bw := c.BandwidthBytesPerKiloCycle
		if bw == 0 {
			bw = 16000
		}
		b = appendInt(b, "bandwidth=", int64(bw))
	}
	b = appendInt(b, "coarseness=", int64(coarseness))
	b = append(b, "tenure_timeout_factor="...)
	b = strconv.AppendFloat(b, tenure, 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, "no_deact_window="...)
	b = strconv.AppendBool(b, c.NoDeactWindow)
	b = append(b, '\n')
	b = append(b, "max_cycles="...)
	b = strconv.AppendUint(b, c.MaxCycles, 10)
	b = append(b, '\n')
	// Fault lines are appended only for a plan that actually injects
	// something, so every fault-free spelling (nil plan, zero plan,
	// seed-only plan, dead windows) keeps the pre-fault golden hash and
	// shares cache entries with unfaulted configs. Only faulted configs
	// pay for fmt.
	if fp := c.FaultPlan.Canonical(); fp != nil {
		b = fmt.Appendf(b, "fault_seed=%d\n", fp.Seed)
		b = fmt.Appendf(b, "fault_hop_jitter=%d\n", fp.HopJitter)
		for _, w := range fp.Degrade {
			b = fmt.Appendf(b, "fault_degrade=%d:%d:%d:%g\n", w.FromCycle, w.ToCycle, w.Multiplier, w.LinkFraction)
		}
		if bu := fp.Burst; bu != nil {
			b = fmt.Appendf(b, "fault_burst=%d:%d:%d\n", bu.Period, bu.Duration, bu.ExtraCycles)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendLine appends the line key+value+"\n" (key ends in '=').
func appendLine(b []byte, key, value string) []byte {
	b = append(b, key...)
	b = append(b, value...)
	return append(b, '\n')
}

// appendInt appends the line key+v+"\n", v in decimal as %d writes it.
func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, key...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}
