package patch

import (
	"errors"
	"fmt"
	"os"

	"patch/internal/sim"
	"patch/internal/workload"
)

// Validation errors. Each failure returned by Validate (and therefore
// Run and Sweep) wraps exactly one of these sentinels, so callers can
// classify failures with errors.Is.
var (
	// ErrUnknownProtocol reports a Protocol outside Directory/PATCH/TokenB.
	ErrUnknownProtocol = errors.New("unknown protocol")
	// ErrUnknownVariant reports a Variant outside the paper's five PATCH
	// configurations.
	ErrUnknownVariant = sim.ErrUnknownVariant
	// ErrUnknownWorkload reports a workload name with no built-in
	// generator.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrBadCores reports a core count outside the evaluated design
	// space: a power of two in [1, 1024], the counts for which the
	// near-square torus layout and the paper's 4..512-core methodology
	// are exercised and checked.
	ErrBadCores = errors.New("core count must be a power of two in [1, 1024]")
	// ErrBadCoarseness reports a sharer-encoding coarseness that is
	// negative, exceeds the core count, or does not divide it evenly.
	ErrBadCoarseness = errors.New("invalid directory coarseness")
	// ErrBadOps reports a negative operation count.
	ErrBadOps = errors.New("ops per core must be non-negative")
	// ErrBadWarmup reports a warmup count below -1 (-1 disables warmup).
	ErrBadWarmup = errors.New("warmup ops must be >= -1")
	// ErrBadBandwidth reports a negative link bandwidth.
	ErrBadBandwidth = errors.New("link bandwidth must be non-negative")
	// ErrBandwidthConflict reports UnboundedBandwidth combined with an
	// explicit finite link bandwidth.
	ErrBandwidthConflict = errors.New("unbounded bandwidth conflicts with an explicit link bandwidth")
	// ErrBadTenureFactor reports a negative tenure-timeout factor.
	ErrBadTenureFactor = errors.New("tenure timeout factor must be non-negative")
	// ErrBadTraceFile reports a TraceFile that does not exist or is not a
	// regular file. The trace's format (text vs binary) and contents are
	// checked when the simulator opens it, not here.
	ErrBadTraceFile = errors.New("trace file not readable")
	// ErrBadFaultPlan reports a fault-injection plan outside the sane
	// parameter envelope (negative or absurd jitter, inverted windows,
	// multiplier below 1, link fraction outside [0, 1], burst duration
	// exceeding its period).
	ErrBadFaultPlan = errors.New("invalid fault plan")
)

// Validate checks the configuration against the simulator's actual
// constraints without building anything. Zero values are valid: they
// select the paper's defaults (64 cores, oltp-free "micro" workload,
// 16 B/cycle links, exact full-map directory).
func (c Config) Validate() error {
	if c.Protocol < Directory || c.Protocol > TokenB {
		return fmt.Errorf("patch: %w: Protocol(%d)", ErrUnknownProtocol, int(c.Protocol))
	}
	if c.Variant < VariantNone || c.Variant > VariantAllNonAdaptive {
		return fmt.Errorf("patch: %w: Variant(%d)", ErrUnknownVariant, int(c.Variant))
	}
	cores := c.Cores
	if cores == 0 {
		cores = 64 // sim's default
	}
	if cores < 1 || cores > 1024 || cores&(cores-1) != 0 {
		return fmt.Errorf("patch: %w: got %d", ErrBadCores, c.Cores)
	}
	if c.TraceFile == "" && c.Workload != "" && !workload.Known(c.Workload) {
		return fmt.Errorf("patch: %w: %q (have %v)", ErrUnknownWorkload, c.Workload, workload.Names())
	}
	if c.TraceFile != "" {
		// The one stat-call exception to "no building": a missing trace
		// fails here as a typed error rather than mid-sweep. Its header
		// and content are checked when the simulator opens the file.
		fi, err := os.Stat(c.TraceFile)
		if err != nil {
			return fmt.Errorf("patch: %w: %v", ErrBadTraceFile, err)
		}
		if !fi.Mode().IsRegular() {
			return fmt.Errorf("patch: %w: %s is not a regular file", ErrBadTraceFile, c.TraceFile)
		}
	}
	if k := c.DirectoryCoarseness; k != 0 {
		if k < 0 || k > cores || cores%k != 0 {
			return fmt.Errorf("patch: %w: K=%d with %d cores (need 1 <= K <= cores, K | cores)",
				ErrBadCoarseness, k, cores)
		}
	}
	if c.OpsPerCore < 0 {
		return fmt.Errorf("patch: %w: got %d", ErrBadOps, c.OpsPerCore)
	}
	if c.WarmupOps < -1 {
		return fmt.Errorf("patch: %w: got %d", ErrBadWarmup, c.WarmupOps)
	}
	if c.BandwidthBytesPerKiloCycle < 0 {
		return fmt.Errorf("patch: %w: got %d", ErrBadBandwidth, c.BandwidthBytesPerKiloCycle)
	}
	if c.UnboundedBandwidth && c.BandwidthBytesPerKiloCycle > 0 {
		return fmt.Errorf("patch: %w: %d B/kilocycle", ErrBandwidthConflict, c.BandwidthBytesPerKiloCycle)
	}
	if c.TenureTimeoutFactor < 0 {
		return fmt.Errorf("patch: %w: got %g", ErrBadTenureFactor, c.TenureTimeoutFactor)
	}
	if err := c.FaultPlan.Validate(); err != nil {
		return fmt.Errorf("patch: %w: %v", ErrBadFaultPlan, err)
	}
	return nil
}
