package patch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fpBase is a fully explicit configuration exercising every
// fingerprinted field.
func fpBase() Config {
	return Config{
		Protocol: PATCH, Variant: VariantAll,
		Cores: 64, Workload: "oltp", OpsPerCore: 600, WarmupOps: 1500,
		Seed: 7, BandwidthBytesPerKiloCycle: 2000, DirectoryCoarseness: 4,
		TenureTimeoutFactor: 2,
	}
}

// TestFingerprintGolden pins the canonical form: the fingerprint of a
// known configuration must never drift. Field-order changes in Config
// cannot move this hash (the canonical encoding enumerates fields in
// its own fixed order); this test catches the accidental kind of drift
// — an edit to the canonical encoder or the normalisation rules.
// Deliberate changes must bump fingerprintVersion and this constant,
// invalidating every on-disk cache entry at once.
func TestFingerprintGolden(t *testing.T) {
	const want = "63d77ec13d0932089d04af55d388731d38096974e658107703a3d8aaee73f977"
	if got := fpBase().Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %s, want %s\n(deliberate canonical-form change? bump fingerprintVersion and update this golden)", got, want)
	}
}

// TestFingerprintNormalizesDefaults: spelling a documented default
// explicitly must not split the cache.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	zero := Config{}
	explicit := Config{
		Cores: 64, Workload: "micro", DirectoryCoarseness: 1,
		BandwidthBytesPerKiloCycle: 16000, TenureTimeoutFactor: 2,
	}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("zero config and explicit defaults fingerprint differently:\n  %s\n  %s",
			zero.Fingerprint(), explicit.Fingerprint())
	}
}

// TestFingerprintDistinguishesAxes: every Matrix axis — and every other
// behaviour-affecting field — must produce a distinct fingerprint, or
// the result cache would serve one cell's results for another.
func TestFingerprintDistinguishesAxes(t *testing.T) {
	variants := map[string]func(*Config){
		"protocol":   func(c *Config) { c.Protocol = TokenB },
		"variant":    func(c *Config) { c.Variant = VariantOwner },
		"cores":      func(c *Config) { c.Cores = 128 },
		"workload":   func(c *Config) { c.Workload = "jbb" },
		"trace_file": func(c *Config) { c.Workload = ""; c.TraceFile = "/tmp/x.bin" },
		"ops":        func(c *Config) { c.OpsPerCore = 601 },
		"warmup":     func(c *Config) { c.WarmupOps = 0 },
		"seed":       func(c *Config) { c.Seed = 8 },
		"bandwidth":  func(c *Config) { c.BandwidthBytesPerKiloCycle = 4000 },
		"unbounded":  func(c *Config) { c.BandwidthBytesPerKiloCycle = 0; c.UnboundedBandwidth = true },
		"coarseness": func(c *Config) { c.DirectoryCoarseness = 16 },
		"tenure":     func(c *Config) { c.TenureTimeoutFactor = 4 },
		"deact":      func(c *Config) { c.NoDeactWindow = true },
		"max_cycles": func(c *Config) { c.MaxCycles = 1000 },
		"fault":      func(c *Config) { c.FaultPlan = &FaultPlan{Seed: 1, HopJitter: 2} },
	}
	base := fpBase().Fingerprint()
	seen := map[string]string{"": base}
	for name, mutate := range variants {
		c := fpBase()
		mutate(&c)
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("axis %q collides with %q: %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintTraceIgnoresWorkload: when TraceFile is set the trace
// supplies every reference and the workload generator is never built
// (Validate skips the unknown-workload check too), so the Workload name
// must be normalised out of the fingerprint — two configs replaying the
// identical trace with different leftover Workload fields would
// otherwise carry different cache keys and the sweep service would
// recompute instead of hitting its content-addressed cache.
func TestFingerprintTraceIgnoresWorkload(t *testing.T) {
	a := fpBase()
	a.TraceFile = "/tmp/x.trace"
	a.Workload = ""
	b := fpBase()
	b.TraceFile = "/tmp/x.trace"
	b.Workload = "oltp"
	c := fpBase()
	c.TraceFile = "/tmp/x.trace"
	c.Workload = "micro"
	if a.Fingerprint() != b.Fingerprint() || a.Fingerprint() != c.Fingerprint() {
		t.Errorf("Workload split the cache for trace-backed configs:\n  %q -> %s\n  %q -> %s\n  %q -> %s",
			a.Workload, a.Fingerprint(), b.Workload, b.Fingerprint(), c.Workload, c.Fingerprint())
	}
	// Different traces must still split.
	d := fpBase()
	d.TraceFile = "/tmp/y.trace"
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("distinct trace files share a fingerprint")
	}
}

// TestFingerprintIgnoresIrrelevantFields: Variant only matters under
// PATCH, and SkipChecks selects verification rather than behaviour —
// neither may split the cache.
func TestFingerprintIgnoresIrrelevantFields(t *testing.T) {
	a := Config{Protocol: Directory, Variant: VariantNone}
	b := Config{Protocol: Directory, Variant: VariantAll}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Variant split the cache for a non-PATCH protocol")
	}
	c := fpBase()
	d := fpBase()
	d.SkipChecks = true
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("SkipChecks split the cache")
	}
}

// refFingerprint is the fmt-based encoder Fingerprint replaced, kept
// as the reference its output is compared against: the same
// normalisations, one fmt.Fprintf per line.
func refFingerprint(c Config) string {
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

// randomFingerprintConfig draws a configuration whose every
// fingerprinted field, and SkipChecks, varies over its defaults, its
// edge values and out-of-range values: out-of-range enums, negative
// and extreme integers, non-finite tenure factors, trace paths with
// spaces and newlines, and fault plans mixing dead and live windows,
// link fraction 1 and live, zero and missing bursts.
func randomFingerprintConfig(r *rand.Rand) Config {
	pick := func(vals ...string) string { return vals[r.Intn(len(vals))] }
	integer := func() int64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return -r.Int63n(1000) - 1
		case 2:
			return math.MaxInt64 - r.Int63n(2)
		}
		return r.Int63n(100_000)
	}
	float := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}[r.Intn(4)]
		case 2:
			return math.Float64frombits(r.Uint64())
		case 3:
			return float64(r.Intn(10))
		}
		return r.Float64() * math.Pow(10, float64(r.Intn(50)-25))
	}
	c := Config{
		Protocol:                   Protocol(r.Intn(4) - r.Intn(2)),
		Variant:                    Variant(r.Intn(7) - r.Intn(2)),
		Cores:                      int(integer()),
		Workload:                   pick("", "micro", "oltp", "jbb", "zipf", "no such workload"),
		OpsPerCore:                 int(integer()),
		WarmupOps:                  int(integer()),
		Seed:                       integer() * int64(1-2*r.Intn(2)),
		BandwidthBytesPerKiloCycle: int(integer()),
		UnboundedBandwidth:         r.Intn(3) == 0,
		DirectoryCoarseness:        int(integer()),
		TenureTimeoutFactor:        float(),
		NoDeactWindow:              r.Intn(2) == 0,
		MaxCycles:                  []uint64{0, r.Uint64(), math.MaxUint64}[r.Intn(3)],
		SkipChecks:                 r.Intn(2) == 0,
	}
	if r.Intn(3) == 0 {
		c.TraceFile = pick("/tmp/x.bin", "traces/oltp 16.bin", "a=b\nc", "../../etc/passwd", "\xff\x00")
	}
	if r.Intn(2) == 0 {
		return c
	}
	p := &FaultPlan{Seed: integer() * int64(1-2*r.Intn(2))}
	if r.Intn(2) == 0 {
		p.HopJitter = r.Intn(8) - 1
	}
	for n := r.Intn(5); n > 0; n-- {
		w := FaultWindow{
			FromCycle:    uint64(r.Intn(10_000)),
			ToCycle:      uint64(r.Intn(10_000)), // sometimes before FromCycle: dead
			Multiplier:   r.Intn(6) - 1,          // <= 1: dead
			LinkFraction: []float64{0, 1, 0.25, r.Float64(), float()}[r.Intn(5)],
		}
		if r.Intn(4) == 0 {
			w.ToCycle = math.MaxUint64
		}
		p.Degrade = append(p.Degrade, w)
	}
	switch r.Intn(3) {
	case 0:
		p.Burst = &CongestionBurst{}
	case 1:
		p.Burst = &CongestionBurst{Period: uint64(r.Intn(1000)), Duration: uint64(r.Intn(100)), ExtraCycles: r.Intn(10) - 1}
	}
	c.FaultPlan = p
	return c
}

// TestFingerprintMatchesReference: Fingerprint hashes exactly the
// bytes the fmt-based reference encoder hashes, over seeded random
// configurations, so every cache key stays what it was.
func TestFingerprintMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	faulted := 0
	for i := 0; i < 20_000; i++ {
		c := randomFingerprintConfig(r)
		if c.FaultPlan.Canonical() != nil {
			faulted++
		}
		if got, want := c.Fingerprint(), refFingerprint(c); got != want {
			t.Fatalf("config %d %+v (plan %+v): Fingerprint %s, reference %s", i, c, c.FaultPlan, got, want)
		}
	}
	if faulted < 2_000 {
		t.Errorf("only %d of 20000 configs carried a live fault plan", faulted)
	}
}

// FuzzFingerprint compares Fingerprint with the reference encoder on
// fuzzer-chosen fields; planJSON, when it decodes, is the fault plan.
func FuzzFingerprint(f *testing.F) {
	f.Add(int(PATCH), int(VariantAll), 64, "oltp", "", 600, 1500, int64(7), 2000, false, 4, 2.0, false, uint64(0), []byte(nil))
	f.Add(int(TokenB), 9, 0, "", "/tmp/x.bin", -1, -1, int64(-3), 0, true, 0, 0.0, true, uint64(math.MaxUint64),
		[]byte(`{"seed":3,"hop_jitter":2,"degrade":[{"from_cycle":10,"to_cycle":20,"multiplier":1},{"from_cycle":100,"to_cycle":900,"multiplier":2,"link_fraction":1},{"from_cycle":1000,"to_cycle":4000,"multiplier":3,"link_fraction":0.25}],"burst":{"period":700,"duration":70,"extra_cycles":5}}`))
	f.Add(7, -1, -8, "micro", "a b\n", 0, 0, int64(math.MinInt64), -5, false, 16, 1e-300, false, uint64(1), []byte(`{"burst":{}}`))
	f.Fuzz(func(t *testing.T, proto, variant, cores int, workload, trace string, ops, warmup int, seed int64,
		bw int, unbounded bool, coarseness int, tenure float64, noDeact bool, maxCycles uint64, planJSON []byte) {
		c := Config{
			Protocol: Protocol(proto), Variant: Variant(variant), Cores: cores,
			Workload: workload, TraceFile: trace, OpsPerCore: ops, WarmupOps: warmup, Seed: seed,
			BandwidthBytesPerKiloCycle: bw, UnboundedBandwidth: unbounded, DirectoryCoarseness: coarseness,
			TenureTimeoutFactor: tenure, NoDeactWindow: noDeact, MaxCycles: maxCycles,
		}
		var p FaultPlan
		if json.Unmarshal(planJSON, &p) == nil {
			c.FaultPlan = &p
		}
		if got, want := c.Fingerprint(), refFingerprint(c); got != want {
			t.Fatalf("%+v (plan %+v): Fingerprint %s, reference %s", c, c.FaultPlan, got, want)
		}
	})
}

// fingerprintSink keeps BenchmarkFingerprint's calls from being
// optimised away.
var fingerprintSink string

// BenchmarkFingerprint prices one cache key: the fingerprint of an
// unfaulted, fully explicit configuration.
func BenchmarkFingerprint(b *testing.B) {
	c := fpBase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = c.Fingerprint()
	}
}
