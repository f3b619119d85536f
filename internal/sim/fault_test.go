package sim

import (
	"errors"
	"strings"
	"testing"

	"patch/internal/cache"
	"patch/internal/fault"
	"patch/internal/msg"
)

// hostilePlan is the reference adversarial schedule used across the
// fault battery: jitter on every hop, a mid-run degradation window on
// half the links, and staggered congestion bursts.
func hostilePlan() *fault.Plan {
	return &fault.Plan{
		Seed:      99,
		HopJitter: 6,
		Degrade:   []fault.Window{{FromCycle: 2_000, ToCycle: 30_000, Multiplier: 4, LinkFraction: 0.5}},
		Burst:     &fault.Burst{Period: 1_000, Duration: 200, ExtraCycles: 5},
	}
}

func faultConfigs() map[string]Config {
	base := Config{Cores: 16, OpsPerCore: 300, Seed: 7, Workload: "micro", auditEvery: 500}
	mk := func(mut func(*Config)) Config {
		c := base
		c.FaultPlan = hostilePlan()
		mut(&c)
		return c
	}
	return map[string]Config{
		"directory":         mk(func(c *Config) { c.Protocol = Directory }),
		"patch-all":         mk(func(c *Config) { c.Protocol = PATCH; c.Variant = VariantAll }),
		"patch-none":        mk(func(c *Config) { c.Protocol = PATCH; c.Variant = VariantNone }),
		"patch-nonadaptive": mk(func(c *Config) { c.Protocol = PATCH; c.Variant = VariantAllNonAdaptive }),
		"tokenb":            mk(func(c *Config) { c.Protocol = TokenB }),
		"patch-unbounded": mk(func(c *Config) {
			c.Protocol = PATCH
			c.Variant = VariantAll
			c.UnboundedBandwidth = true
		}),
		"directory-degraded": mk(func(c *Config) { c.Protocol = Directory; c.FaultPlan.HopJitter = 0 }),
	}
}

// TestFaultedRunsSurviveAudit drives every protocol through the hostile
// plan with the mid-run invariant audit at high frequency: injection
// must shake nothing loose (conservation, single-writer, queue bounds
// all hold at every sample point) and the run must still complete.
func TestFaultedRunsSurviveAudit(t *testing.T) {
	for name, cfg := range faultConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if r.Cycles == 0 || r.Ops == 0 {
				t.Fatalf("degenerate result: %+v", r)
			}
		})
	}
}

// TestFaultRunsDeterministic pins that a faulted run is a pure function
// of its config: same config, same result, on fresh systems and on a
// Reset-reused system.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := faultConfigs()["patch-all"]
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *first {
		t.Fatalf("fresh faulted runs diverged:\n%+v\n%+v", first, again)
	}

	// Reset path: prime a system with a different (also faulted) config,
	// then Reset into cfg — the injector streams must rewind.
	prime := cfg
	prime.Seed = 12345
	sys, err := NewSystem(prime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	reused, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *reused != *first {
		t.Fatalf("reset faulted run diverged from fresh:\n%+v\n%+v", first, reused)
	}
}

// TestZeroFaultPlanIsNoop pins the nil-plan contract at the sim layer:
// a pointer to a zero plan and no plan at all produce identical results.
func TestZeroFaultPlanIsNoop(t *testing.T) {
	base := Config{Protocol: PATCH, Variant: VariantAll,
		Cores: 16, OpsPerCore: 300, Seed: 3, Workload: "micro"}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := base
	zeroed.FaultPlan = &fault.Plan{Seed: 42} // seed alone injects nothing
	got, err := Run(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	got.Config = bare.Config // configs differ by the pointer; outputs must not
	if *got != *bare {
		t.Fatalf("zero fault plan changed results:\n%+v\n%+v", bare, got)
	}
}

// TestFaultInjectionPerturbsTiming sanity-checks that an enabled plan
// actually does something: runtime must differ from the fault-free run.
func TestFaultInjectionPerturbsTiming(t *testing.T) {
	base := Config{Protocol: Directory, Cores: 16, OpsPerCore: 300, Seed: 3, Workload: "micro"}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.FaultPlan = hostilePlan()
	got, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles == bare.Cycles {
		t.Fatalf("hostile plan left runtime unchanged at %d cycles", got.Cycles)
	}
	if got.Cycles < bare.Cycles {
		t.Fatalf("injected delay sped the run up: %d < %d cycles", got.Cycles, bare.Cycles)
	}
}

// TestWatchdogReturnsTypedDiagnostics pins the forensics contract: a
// watchdog failure is a *RunError carrying kind, protocol, and a
// structured dump, and its message keeps the historical phrasing.
func TestWatchdogReturnsTypedDiagnostics(t *testing.T) {
	// Enough work that the run cannot complete within the engine's first
	// event chunk, so the watchdog trips with protocol state in flight.
	cfg := Config{Protocol: PATCH, Variant: VariantAll,
		Cores: 16, OpsPerCore: 100_000, Seed: 1, Workload: "micro", MaxCycles: 1}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("MaxCycles=1 run succeeded")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("watchdog error is %T, want *RunError: %v", err, err)
	}
	if re.Kind != FailWatchdog {
		t.Fatalf("Kind = %v, want FailWatchdog", re.Kind)
	}
	if re.Protocol != PATCH {
		t.Fatalf("Protocol = %v, want PATCH", re.Protocol)
	}
	if !strings.Contains(err.Error(), "liveness watchdog") {
		t.Fatalf("error lost the watchdog phrasing: %v", err)
	}
	d := re.Diag
	if d.Cores != 16 || d.Finished == d.Cores {
		t.Fatalf("diagnostics not populated: %+v", d)
	}
	// A 16-core system stopped after one cycle has outstanding work; the
	// dump must show it and render without panicking.
	if d.OutstandingMSHRs == 0 && d.PendingSends == 0 && d.Queued == 0 {
		t.Fatalf("no outstanding state in diagnostics: %+v", d)
	}
	if dump := d.Dump(); !strings.Contains(dump, "cores finished") {
		t.Fatalf("dump missing summary: %q", dump)
	}
}

// TestAuditDetectsTokenTheft proves the mid-run conservation audit has
// teeth: destroy one token in a cache mid-run and the next audit pass
// must fail with a FailAudit RunError naming the violation.
func TestAuditDetectsTokenTheft(t *testing.T) {
	cfg := Config{Protocol: PATCH, Variant: VariantAll,
		Cores: 16, OpsPerCore: 20_000, Seed: 5, Workload: "micro", auditEvery: 200}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.start()
	// Let the system reach steady state, then steal one token from a
	// cache line holding several (leaving its owner bit alone, so the
	// damage is invisible to the line's own MOESI view — only global
	// conservation can see it).
	sys.Eng.Run(50_000)
	if sys.auditErr != nil {
		t.Fatalf("audit tripped before tampering: %v", sys.auditErr)
	}
	var victim *cache.Line
	for _, n := range sys.Nodes {
		n.Shared().L2.ForEach(func(l *cache.Line) {
			if victim == nil && l.Tok.Count > 1 {
				victim = l
			}
		})
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no cache line holding multiple tokens after 50k events")
	}
	victim.Tok.Count--
	for i := 0; i < 100 && sys.auditErr == nil; i++ {
		if sys.Eng.Run(10_000) == 0 {
			break
		}
	}
	if sys.auditErr == nil {
		t.Fatal("audit never detected the stolen token")
	}
	var re *RunError
	if !errors.As(sys.auditErr, &re) {
		t.Fatalf("audit error is %T, want *RunError: %v", sys.auditErr, sys.auditErr)
	}
	if re.Kind != FailAudit {
		t.Fatalf("Kind = %v, want FailAudit", re.Kind)
	}
	if !strings.Contains(re.Error(), "token conservation violated") {
		t.Fatalf("audit error does not name the violation: %v", re)
	}
}

// TestDenseAuditNoFalsePositives pins two former false positives of the
// mid-run audit under jitter: tokens a PATCH home holds in delivered
// writebacks and token returns during its directory lookup (once
// reported as "tokens short"), and a DIRECTORY write miss whose line
// turned writable on data arrival while invalidation acks were still
// outstanding (once reported as a writable copy coexisting with
// sharers). A dense audit must pass every protocol.
func TestDenseAuditNoFalsePositives(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"directory": func(c *Config) { c.Protocol = Directory },
		"patch-all": func(c *Config) { c.Protocol = PATCH; c.Variant = VariantAll },
		"tokenb":    func(c *Config) { c.Protocol = TokenB },
	} {
		cfg := Config{
			Cores: 16, OpsPerCore: 100, WarmupOps: 200, Seed: 1, Workload: "convoy",
			auditEvery: 97,
		}
		cfg.FaultPlan = &fault.Plan{Seed: 1, HopJitter: 4}
		mut(&cfg)
		t.Run(name, func(t *testing.T) {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAuditDetectsForgedOwner proves the audit counts owner tokens,
// not just tokens: forge the owner flag on a cache line that holds some
// of a block's tokens while the block's owner token sits at its home.
// Every count is unchanged and no cache-side single-writer check sees
// two owners; only Rule #1's one-owner clause can.
func TestAuditDetectsForgedOwner(t *testing.T) {
	sys, err := NewSystem(Config{Protocol: PATCH, Variant: VariantAll, Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	read := func(core int, a msg.Addr) {
		sys.Nodes[core].Access(a, false, func() {})
		sys.Eng.Run(0)
	}
	// Three cores read the block: the last reader receives the owner
	// token, the first two keep one plain token each.
	const a = msg.Addr(0x10000)
	for c := 0; c < 3; c++ {
		read(c, a)
	}
	// Evict core 2's copy by reading four blocks that share its set of
	// the 1 MiB 4-way L2: the writeback returns the owner token home.
	const setStride = (1 << 20) / 4
	for k := msg.Addr(1); k <= 4; k++ {
		read(2, a+k*setStride)
	}
	homeOwns := false
	sys.Nodes[sys.Env.HomeOf(a)].Home().TokenHoldings(func(b msg.Addr, _ int, owner bool) {
		homeOwns = homeOwns || (b == a && owner)
	})
	victim := sys.Nodes[0].Shared().L2.Lookup(a)
	if !homeOwns || victim == nil || victim.Tok.Count == 0 || victim.Tok.Owner {
		t.Fatalf("setup: home owns %v, core 0 holds %+v; want the owner at home beside a plain sharer", homeOwns, victim)
	}
	if err := sys.auditNow(); err != nil {
		t.Fatalf("audit failed before tampering: %v", err)
	}
	victim.Tok.Owner = true
	err = sys.auditNow()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != FailAudit {
		t.Fatalf("forged owner token: audit returned %v, want a FailAudit RunError", err)
	}
	if !strings.Contains(re.Reason, "2 owner tokens") {
		t.Fatalf("audit error does not name the owner count: %v", re)
	}
}
