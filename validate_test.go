package patch

import (
	"errors"
	"testing"
)

func TestAblationKnobsReachSim(t *testing.T) {
	cfg := Config{
		Protocol:            PATCH,
		Variant:             VariantAll,
		TenureTimeoutFactor: 4,
		NoDeactWindow:       true,
		MaxCycles:           123,
	}
	sc := cfg.ToSim()
	if sc.TenureTimeoutFactor != 4 || !sc.NoDeactWindow || sc.MaxCycles != 123 {
		t.Fatalf("ablation knobs lost in lowering: %+v", sc)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"unknown protocol", Config{Protocol: Protocol(9)}, ErrUnknownProtocol},
		{"unknown variant", Config{Variant: Variant(9)}, ErrUnknownVariant},
		{"unknown workload", Config{Workload: "sqlite"}, ErrUnknownWorkload},
		{"cores not power of two", Config{Cores: 12}, ErrBadCores},
		{"cores too large", Config{Cores: 2048}, ErrBadCores},
		{"cores negative", Config{Cores: -4}, ErrBadCores},
		{"coarseness above cores", Config{Cores: 16, DirectoryCoarseness: 32}, ErrBadCoarseness},
		{"coarseness not dividing", Config{Cores: 16, DirectoryCoarseness: 3}, ErrBadCoarseness},
		{"coarseness negative", Config{DirectoryCoarseness: -1}, ErrBadCoarseness},
		{"negative ops", Config{OpsPerCore: -1}, ErrBadOps},
		{"warmup below -1", Config{WarmupOps: -2}, ErrBadWarmup},
		{"negative bandwidth", Config{BandwidthBytesPerKiloCycle: -5}, ErrBadBandwidth},
		{"bandwidth conflict", Config{BandwidthBytesPerKiloCycle: 2000, UnboundedBandwidth: true}, ErrBandwidthConflict},
		{"negative tenure factor", Config{TenureTimeoutFactor: -1}, ErrBadTenureFactor},
		{"missing trace file", Config{TraceFile: "/nonexistent/run.trace"}, ErrBadTraceFile},
		{"trace file is a directory", Config{TraceFile: "."}, ErrBadTraceFile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCoarsenessValidAgainstDefaultCores(t *testing.T) {
	// Cores 0 means the paper's 64; a coarseness of 64 divides it.
	if err := (Config{DirectoryCoarseness: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{DirectoryCoarseness: 128}).Validate(); !errors.Is(err, ErrBadCoarseness) {
		t.Fatalf("coarseness 128 on 64 default cores accepted: %v", err)
	}
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(Config{Cores: 12}); !errors.Is(err, ErrBadCores) {
		t.Fatalf("Run accepted a 12-core torus: %v", err)
	}
	if _, err := Run(Config{Workload: "nope"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("Run accepted an unknown workload: %v", err)
	}
}
