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
	"encoding/json"
	"fmt"
	"strings"

	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
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
type Variant int

const (
	// VariantNone sends no direct requests (PATCH-NONE).
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

// variantNames maps each Variant to its wire spelling — the paper name
// Variant.String returns. Unmarshalling accepts these names
// case-insensitively, or a bare integer for backwards compatibility.
var variantNames = map[string]Variant{}

func init() {
	for v := VariantNone; v <= VariantAllNonAdaptive; v++ {
		variantNames[strings.ToLower(v.String())] = v
	}
}

// MarshalJSON encodes the variant by its paper name ("PATCH-All"), so
// the wire form survives any renumbering of the Go constants.
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
		got, ok := variantNames[strings.ToLower(s)]
		if !ok {
			return fmt.Errorf("patch: %w: %q", ErrUnknownVariant, s)
		}
		*v = got
		return nil
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

// Config describes one simulation. Zero values select the paper's
// defaults (64 cores, 16 B/cycle links, full-map directory).
//
// Config is a wire type: the sweep service sends it over HTTP, so its
// JSON field names are explicit and stable (a golden round-trip test
// pins them). Protocol and Variant marshal by name ("PATCH",
// "PATCH-All"), not enum position.
type Config struct {
	Protocol Protocol `json:"protocol"`
	Variant  Variant  `json:"variant,omitempty"` // PATCH only

	Cores int `json:"cores,omitempty"`
	// Workload names a registered generator: one of the paper's
	// application mixes ("jbb", "oltp", "apache", "barnes", "ocean"),
	// the §8.1 microbenchmark ("micro"), or a sharing-pattern scenario
	// ("pipeline", "migratory", "convoy", "falseshare", "zipf",
	// "phased"); Workloads and ScenarioWorkloads list the two families.
	// TraceFile, when set, replays a recorded reference trace instead.
	//
	// The trace is a binary trace (patchsim -record), streamed in
	// fixed-size per-core windows (mmap-backed on linux), so multi-GB
	// replays open at near-zero resident cost. Validate only checks the
	// file exists; header and content errors (a text trace fails on its
	// magic) surface when the run opens it.
	Workload   string `json:"workload,omitempty"`
	TraceFile  string `json:"trace_file,omitempty"`
	OpsPerCore int    `json:"ops_per_core,omitempty"`
	WarmupOps  int    `json:"warmup_ops,omitempty"` // 0: one warmup op per measured op; -1: none
	Seed       int64  `json:"seed,omitempty"`

	// BandwidthBytesPerKiloCycle sweeps link bandwidth (Figures 6-8);
	// 0 selects the paper's default 16 bytes/cycle. UnboundedBandwidth
	// disables link contention entirely (Figure 9's upper halves).
	BandwidthBytesPerKiloCycle int  `json:"bandwidth_bytes_per_kilocycle,omitempty"`
	UnboundedBandwidth         bool `json:"unbounded_bandwidth,omitempty"`

	// DirectoryCoarseness is K in the coarse sharer vector (1 bit per K
	// cores); 1 or 0 selects an exact full map (Figures 9-10).
	DirectoryCoarseness int `json:"directory_coarseness,omitempty"`

	// TenureTimeoutFactor scales the token-tenure probationary period
	// relative to the average round trip (PATCH ablation; 0 selects the
	// paper's 2x design point).
	TenureTimeoutFactor float64 `json:"tenure_timeout_factor,omitempty"`
	// NoDeactWindow disables the post-deactivation direct-request ignore
	// window (PATCH ablation, §5.2's racing-request mitigation).
	NoDeactWindow bool `json:"no_deact_window,omitempty"`
	// MaxCycles aborts a run that stops making progress (liveness
	// watchdog); 0 selects a generous default.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// SkipChecks disables the end-of-run invariant verification
	// (benchmark loops only).
	SkipChecks bool `json:"skip_checks,omitempty"`

	// FaultPlan, when set, injects deterministic interconnect faults
	// (seeded delay jitter, degradation windows, congestion bursts) and
	// enables the mid-run invariant audit. A nil or no-op plan leaves
	// the simulation bit-identical to an unfaulted run.
	FaultPlan *FaultPlan `json:"fault_plan,omitempty"`
}

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

// ToSim lowers the facade configuration to the internal simulator
// configuration (exposed for tooling such as cmd/patchsim's tracer).
func (c Config) ToSim() sim.Config {
	sc := sim.Config{
		Protocol:            c.Protocol,
		Cores:               c.Cores,
		OpsPerCore:          c.OpsPerCore,
		WarmupOps:           c.WarmupOps,
		Seed:                c.Seed,
		Workload:            c.Workload,
		TraceFile:           c.TraceFile,
		Coarseness:          c.DirectoryCoarseness,
		TenureTimeoutFactor: c.TenureTimeoutFactor,
		NoDeactWindow:       c.NoDeactWindow,
		MaxCycles:           c.MaxCycles,
		SkipChecks:          c.SkipChecks,
	}
	if c.Protocol == sim.PATCH {
		switch c.Variant {
		case VariantNone:
			sc.Policy = predictor.None
		case VariantOwner:
			sc.Policy = predictor.Owner
		case VariantBroadcastIfShared:
			sc.Policy = predictor.BroadcastIfShared
		case VariantAll, VariantAllNonAdaptive:
			sc.Policy = predictor.All
		}
		sc.BestEffort = c.Variant != VariantAllNonAdaptive
	}
	if c.UnboundedBandwidth {
		sc.Net = interconnect.Config{Unbounded: true, HopLatency: 3, RouteOverhead: 3, DropAfter: 100}
	} else if c.BandwidthBytesPerKiloCycle > 0 {
		sc.Net = interconnect.DefaultConfig()
		sc.Net.BytesPerKiloCycle = c.BandwidthBytesPerKiloCycle
	}
	// After the bandwidth branches: both leave sc.Net fully formed, and
	// the zero-value branch is re-defaulted inside sim with the fault
	// pointer preserved.
	sc.Net.Fault = c.FaultPlan.toPlan()
	return sc
}

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

// DescribeWorkload returns a registered workload's one-line parameter
// summary and whether the name is known.
func DescribeWorkload(name string) (string, bool) {
	return workload.Describe(name)
}

// Variants lists the PATCH variants in the paper's Figure 4/5 order.
func Variants() []Variant {
	return []Variant{VariantNone, VariantOwner, VariantBroadcastIfShared, VariantAll}
}
