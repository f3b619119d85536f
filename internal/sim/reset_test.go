package sim

import (
	"reflect"
	"testing"
)

// TestResetMatchesFresh pins the tentpole reuse contract: a System that
// has already run arbitrary other configurations and is then Reset to
// configuration C produces a Result byte-identical to a freshly
// constructed System running C. The sequence reuses one System per
// protocol across every golden configuration of that protocol (the
// same configurations the golden differential test pins against the
// pre-refactor engine), so workload, seed, coarseness and bandwidth
// all change across consecutive resets.
func TestResetMatchesFresh(t *testing.T) {
	byProto := map[Kind][]struct {
		name string
		cfg  Config
	}{}
	for _, gc := range goldenConfigs() {
		byProto[gc.cfg.Protocol] = append(byProto[gc.cfg.Protocol], gc)
	}
	for proto, gcs := range byProto {
		reused, err := NewSystem(gcs[0].cfg)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		// Dirty the reused System with a run nothing else compares
		// against, so every comparison below crosses a reset boundary.
		warm := gcs[0].cfg
		warm.Seed = 12345
		if _, err := reused.Run(); err != nil {
			t.Fatalf("%v: priming run: %v", proto, err)
		}
		if err := reused.Reset(warm); err != nil {
			t.Fatalf("%v: priming reset: %v", proto, err)
		}
		if _, err := reused.Run(); err != nil {
			t.Fatalf("%v: priming run 2: %v", proto, err)
		}
		for _, gc := range gcs {
			want, err := Run(gc.cfg)
			if err != nil {
				t.Fatalf("%s fresh: %v", gc.name, err)
			}
			if err := reused.Reset(gc.cfg); err != nil {
				t.Fatalf("%s reset: %v", gc.name, err)
			}
			got, err := reused.Run()
			if err != nil {
				t.Fatalf("%s reused: %v", gc.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: reused System diverged from fresh\n got: %+v\nwant: %+v", gc.name, got, want)
			}
		}
	}
}

// TestResetIncompatible checks the two compatibility axes: protocol and
// core count. Everything else may change across a reset.
func TestResetIncompatible(t *testing.T) {
	base := Config{Protocol: Directory, Cores: 8, OpsPerCore: 20, WarmupOps: 20, Workload: "micro", Seed: 1}
	s, err := NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	other := base
	other.Protocol = TokenB
	if err := s.Reset(other); err != ErrIncompatibleReset {
		t.Errorf("protocol change: err = %v, want ErrIncompatibleReset", err)
	}
	other = base
	other.Cores = 16
	if err := s.Reset(other); err != ErrIncompatibleReset {
		t.Errorf("core-count change: err = %v, want ErrIncompatibleReset", err)
	}
	// A failed reset must leave the System reusable.
	other = base
	other.Workload = "no-such-workload"
	if err := s.Reset(other); err == nil {
		t.Error("unknown workload: reset succeeded")
	}
	if err := s.Reset(base); err != nil {
		t.Errorf("reset after failed reset: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Errorf("run after failed reset: %v", err)
	}
}

// TestResetReuseWithChecks soaks the reused-System path with the full
// invariant battery enabled (token conservation and auditing, online
// coherence order, write serialisation, quiescence): a stale MSHR,
// waiter, arena entry or pooled message surviving a Reset surfaces as
// an invariant violation in a later run. Seeds and variants rotate so
// consecutive runs on one System differ.
func TestResetReuseWithChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range []Kind{Directory, PATCH, TokenB} {
		var s *System
		for seed := int64(50); seed < 56; seed++ {
			cfg := Config{
				Protocol: k, Cores: 8, OpsPerCore: 120, WarmupOps: 120,
				Workload: []string{"oltp", "micro", "ocean"}[seed%3], Seed: seed,
			}
			if k == PATCH {
				cfg.Variant = Variant(seed % 5)
			}
			var err error
			if s == nil {
				s, err = NewSystem(cfg)
			} else {
				err = s.Reset(cfg)
			}
			if err != nil {
				t.Fatalf("%v seed %d: %v", k, seed, err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", k, seed, err)
			}
		}
	}
}
