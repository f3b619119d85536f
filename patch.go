// Package patch is a from-scratch reproduction of "Token Tenure:
// PATCHing Token Counting Using Directory-Based Cache Coherence"
// (Raghavan, Blundell, Martin; MICRO-41, 2008).
//
// It provides a discrete-event multicore memory-system simulator with
// three complete cache-coherence protocols:
//
//   - Directory — the paper's baseline: a GEMS-style blocking MOESI+F
//     directory protocol with a migratory-sharing optimisation.
//   - PATCH — the paper's contribution: the directory protocol augmented
//     with token counting, best-effort direct requests driven by
//     destination-set prediction, and the broadcast-free token-tenure
//     forward-progress mechanism.
//   - TokenB — broadcast token coherence with persistent requests, the
//     paper's performance comparator.
//
// The simulated machine follows the paper's methods section: simple
// in-order cores, 64 KB L1s, 1 MB 12-cycle private L2s, 64-byte blocks,
// an 80-cycle DRAM, a 16-cycle on-chip directory, and a 2D-torus
// interconnect with fan-out multicast, a deprioritised droppable
// best-effort message class, and per-link bandwidth modelling.
//
// The simplest entry point runs one configuration, written as a Config
// literal whose zero fields select the paper's defaults:
//
//	res, err := patch.Run(patch.Config{
//		Protocol: patch.PATCH,
//		Variant:  patch.VariantAll,
//		Cores:    64,
//		Workload: "oltp",
//	})
//
// Run validates the configuration first; bad parameters surface as
// typed errors (see Validate).
//
// Variants map onto the paper's configurations (PATCH-NONE, PATCH-OWNER,
// PATCH-BROADCASTIFSHARED, PATCH-ALL, PATCH-ALL-NONADAPTIVE). Declare a
// grid of configurations x workloads x seeds as a Matrix and run it in
// parallel with Sweep, streaming results to pluggable Emitters (CSV,
// JSON, markdown, ASCII charts). A one-cell Matrix with Seeds n
// collects n perturbed runs and a 95% confidence interval, as the
// paper's figures do.
package patch

import (
	"patch/internal/msg"
	"patch/internal/sim"
	"patch/internal/stats"
	"patch/internal/workload"
)

// Protocol selects the coherence protocol.
type Protocol = sim.Kind

// Protocol values.
const (
	Directory = sim.Directory
	PATCH     = sim.PATCH
	TokenB    = sim.TokenB
)

// Variant names a PATCH configuration from the paper's evaluation.
// It marshals by paper name ("PATCH-All") and decodes a name
// (case-insensitive) or an integer.
type Variant = sim.Variant

// Variant values, in the paper's order.
const (
	VariantNone              = sim.VariantNone
	VariantOwner             = sim.VariantOwner
	VariantBroadcastIfShared = sim.VariantBroadcastIfShared
	VariantAll               = sim.VariantAll
	VariantAllNonAdaptive    = sim.VariantAllNonAdaptive
)

// Config describes one simulation. It is sim.Config under the
// facade's name: the fields, their JSON tags and their doc comments
// live there, once (go doc patch/internal/sim.Config lists them), and
// ToSim is a plain conversion. Zero values
// select the paper's defaults (64 cores, the "micro" workload,
// 16 B/cycle links, full-map directory, a 2x tenure timeout).
//
// Config is a wire type: the sweep service sends it over HTTP, so its
// JSON field names are explicit and stable (a golden round-trip test
// pins them), in sim.Config's field order. Protocol and Variant
// marshal by name ("PATCH", "PATCH-All"), not enum position.
type Config sim.Config

// Result is the outcome of one run. Like Config it is a wire type
// (the sweep service's result cache and job journal persist it), so
// field names are explicit JSON.
type Result struct {
	// Cycles is the measured-phase runtime.
	Cycles uint64 `json:"cycles"`
	// Misses is the number of demand misses.
	Misses uint64 `json:"misses"`
	// BytesPerMiss is interconnect traffic (bytes x links) per miss, the
	// paper's traffic metric.
	BytesPerMiss float64 `json:"bytes_per_miss"`
	// TrafficByClass breaks traffic down by the paper's categories
	// (Data, Ack, Direct, Indirect, Forward, Reissue, Activation).
	TrafficByClass map[string]uint64 `json:"traffic_by_class,omitempty"`
	// AvgMissLatency is the mean cycles from issue to core restart.
	AvgMissLatency float64 `json:"avg_miss_latency"`
	// DroppedDirectRequests counts stale best-effort messages discarded
	// by the interconnect.
	DroppedDirectRequests uint64 `json:"dropped_direct_requests,omitempty"`
	// SharingMisses and MemoryMisses classify demand misses by where the
	// data came from.
	SharingMisses uint64 `json:"sharing_misses,omitempty"`
	MemoryMisses  uint64 `json:"memory_misses,omitempty"`
	// TenureTimeouts counts untenured-token discards (PATCH).
	TenureTimeouts uint64 `json:"tenure_timeouts,omitempty"`
	// Reissues and PersistentRequests count TokenB's forward-progress
	// machinery.
	Reissues           uint64 `json:"reissues,omitempty"`
	PersistentRequests uint64 `json:"persistent_requests,omitempty"`
}

// Summary aggregates multiple seeded runs of one configuration.
type Summary struct {
	Runtime      stats.Summary `json:"runtime"`
	BytesPerMiss stats.Summary `json:"bytes_per_miss"`
	Results      []*Result     `json:"results,omitempty"`
}

// ToSim returns the configuration as the simulator's own type
// (exposed for tooling such as cmd/patchsim's tracer). The two types
// share one definition, so this is a conversion: it applies no
// defaults, and sim.NewSystem derives the same network from it as Run
// does.
func (c Config) ToSim() sim.Config { return sim.Config(c) }

func fromSim(r *sim.Result) *Result {
	out := &Result{
		Cycles:                r.Cycles,
		Misses:                r.Misses,
		BytesPerMiss:          r.BytesPerMiss,
		AvgMissLatency:        r.AvgMissLatency,
		DroppedDirectRequests: r.Dropped,
		SharingMisses:         r.Stats.SharingMisses,
		MemoryMisses:          r.Stats.MemoryMisses,
		TenureTimeouts:        r.Stats.TenureTimeouts,
		Reissues:              r.Stats.Reissues,
		PersistentRequests:    r.Stats.PersistentReqs,
		TrafficByClass:        make(map[string]uint64, msg.NumClasses),
	}
	for c := msg.Class(0); c < msg.NumClasses; c++ {
		out.TrafficByClass[c.String()] = r.BytesByClass[c]
	}
	return out
}

// Run executes one simulation to completion, verifying the protocol
// invariants (token conservation, single-writer, liveness) unless
// SkipChecks is set. The configuration is validated first, so bad
// parameters surface as typed errors rather than deep-in-sim failures.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := sim.Run(cfg.ToSim())
	if err != nil {
		return nil, err
	}
	return fromSim(r), nil
}

// Workloads lists the named application workloads in the paper's figure
// order (jbb, oltp, apache, barnes, ocean).
func Workloads() []string {
	return workload.PaperWorkloads()
}

// ScenarioWorkloads lists the synthetic sharing-pattern scenario
// generators (pipeline, migratory, convoy, falseshare, zipf, phased) —
// each isolates one sharing behaviour the paper's §8 evaluation
// differentiates the protocols on, and each is a first-class Matrix
// axis value.
func ScenarioWorkloads() []string {
	return workload.Scenarios()
}

// DescribeWorkload returns a named workload's one-line parameter
// summary and whether the name is known.
func DescribeWorkload(name string) (string, bool) {
	return workload.Describe(name)
}

// Variants lists the PATCH variants in the paper's Figure 4/5 order.
func Variants() []Variant {
	return []Variant{VariantNone, VariantOwner, VariantBroadcastIfShared, VariantAll}
}
