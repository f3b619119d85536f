package patch

// An Option configures one aspect of a simulation. Options compose the
// paper's configuration space declaratively:
//
//	cfg, err := patch.New(
//		patch.WithProtocol(patch.PATCH),
//		patch.WithVariant(patch.VariantAll),
//		patch.WithCores(64),
//		patch.WithWorkload("oltp"),
//	)
//
// New validates the assembled Config, so contradictory or out-of-range
// parameters surface as typed errors (see Validate) before a simulator
// is ever built.
type Option func(*Config)

// New builds a Config from the paper's defaults plus the given options
// and validates it.
func New(opts ...Option) (Config, error) {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on validation
// errors.
func MustNew(opts ...Option) Config {
	c, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// WithProtocol selects the coherence protocol (Directory, PATCH,
// TokenB).
func WithProtocol(p Protocol) Option { return func(c *Config) { c.Protocol = p } }

// WithVariant selects the PATCH configuration (§6); ignored by the
// other protocols.
func WithVariant(v Variant) Option { return func(c *Config) { c.Variant = v } }

// WithCores sets the system size: a power of two, matching the
// paper's evaluated design space (4..512 cores on a near-square
// torus).
func WithCores(n int) Option { return func(c *Config) { c.Cores = n } }

// WithWorkload selects a registered workload generator (see
// AllWorkloads: the paper mixes, "micro", and the scenario family).
func WithWorkload(name string) Option { return func(c *Config) { c.Workload = name } }

// WithTraceFile replays a recorded binary reference trace (patchsim
// -record) instead of a named workload; it streams in fixed-size
// windows (see Config.TraceFile).
func WithTraceFile(path string) Option { return func(c *Config) { c.TraceFile = path } }

// WithOps sets the measured operations per core.
func WithOps(n int) Option { return func(c *Config) { c.OpsPerCore = n } }

// WithWarmup sets warmup operations per core (-1 disables warmup; 0
// selects one warmup op per measured op).
func WithWarmup(n int) Option { return func(c *Config) { c.WarmupOps = n } }

// WithSeed sets the base random seed.
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithBandwidth sets link bandwidth in bytes per 1000 cycles (Figures
// 6-8); 0 selects the paper's default 16 bytes/cycle.
func WithBandwidth(bytesPerKiloCycle int) Option {
	return func(c *Config) { c.BandwidthBytesPerKiloCycle = bytesPerKiloCycle }
}

// WithUnboundedBandwidth disables link-contention modelling entirely
// (Figure 9's upper halves).
func WithUnboundedBandwidth() Option { return func(c *Config) { c.UnboundedBandwidth = true } }

// WithCoarseness sets the sharer-encoding coarseness K (1 bit per K
// cores; 1 = exact full map), Figures 9-10.
func WithCoarseness(k int) Option { return func(c *Config) { c.DirectoryCoarseness = k } }

// WithTenureTimeoutFactor scales the token-tenure probationary period
// relative to the average round trip (PATCH ablation; the paper fixes
// it at 2x).
func WithTenureTimeoutFactor(f float64) Option {
	return func(c *Config) { c.TenureTimeoutFactor = f }
}

// WithNoDeactWindow disables the post-deactivation direct-request
// ignore window (PATCH ablation, §5.2).
func WithNoDeactWindow() Option { return func(c *Config) { c.NoDeactWindow = true } }

// WithMaxCycles bounds the liveness watchdog.
func WithMaxCycles(n uint64) Option { return func(c *Config) { c.MaxCycles = n } }

// WithSkipChecks disables end-of-run invariant verification (benchmark
// loops only).
func WithSkipChecks() Option { return func(c *Config) { c.SkipChecks = true } }

// WithFaultPlan injects deterministic interconnect faults (seeded delay
// jitter, link-degradation windows, congestion bursts) and enables the
// mid-run invariant audit. nil, and plans that inject nothing, are
// no-ops.
func WithFaultPlan(p *FaultPlan) Option { return func(c *Config) { c.FaultPlan = p } }
