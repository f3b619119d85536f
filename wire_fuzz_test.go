package patch

import (
	"encoding/json"
	"testing"
)

// FuzzMatrixJSON throws hostile bytes at the wire decoders the sweep
// service exposes to the network: a submitted job body is unmarshalled
// into a Matrix and expanded, and each expanded cell Config is
// validated and fingerprinted. None of that may panic or allocate
// proportionally to attacker-chosen counts — a matrix whose expansion
// exceeds MaxReplicas must be rejected by Plan, not die in make().
func FuzzMatrixJSON(f *testing.F) {
	f.Add([]byte(`{
		"base": {"cores": 8, "workload": "micro", "ops_per_core": 60, "seed": 1},
		"protocols": [{"protocol": "Directory"}, {"protocol": "PATCH", "variant": "PATCH-All"}],
		"cores": [4, 8],
		"seeds": 2
	}`))
	// Allocation bomb: 4 cells x 2^62 seeds must be rejected, not
	// handed to make().
	f.Add([]byte(`{"seeds": 4611686018427387904, "protocols": [{}, {}, {}, {}]}`))
	f.Add([]byte(`{"seeds": -7}`))
	f.Add([]byte(`{"protocols": [{"protocol": "NoSuchProtocol"}]}`))
	f.Add([]byte(`{"protocols": [{"protocol": "PATCH", "variant": "PATCH-Everything"}]}`))
	f.Add([]byte(`{"protocols": [{"protocol": "PATCH", "variant": 9000}]}`))
	f.Add([]byte(`{"adjust": "no-such-transform"}`))
	f.Add([]byte(`{"filter": "no-such-predicate"}`))
	f.Add([]byte(`{"base": {"workload": "\u0000", "trace": "../../etc/passwd"}}`))
	f.Add([]byte(`{"base": {"cores": -1, "bandwidth": -999}}`))
	f.Add([]byte(`{"cores": [0, -4, 1073741824]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := json.Unmarshal(data, &m); err != nil {
			return // malformed JSON is rejected before any expansion
		}
		plan, err := m.Plan()
		if err != nil {
			return
		}
		// The plan's counts must agree with each other and with the
		// bound Plan enforces.
		cells, replicas := plan.NumCells(), plan.NumReplicas()
		if cells < 1 || replicas != cells*plan.SeedsPerCell() {
			t.Fatalf("inconsistent plan: %d cells x %d seeds, %d replicas", cells, plan.SeedsPerCell(), replicas)
		}
		if replicas > MaxReplicas {
			t.Fatalf("NumReplicas %d exceeds MaxReplicas %d", replicas, MaxReplicas)
		}
		for i := 0; i < plan.NumCells(); i++ {
			cfg := plan.CellConfig(i)
			// A planned cell passed expansion-time validation, so its
			// fingerprint — the cache key the service trusts — must be
			// derivable without panicking, twice over identically.
			if a, b := cfg.Fingerprint(), cfg.Fingerprint(); a != b || a == "" {
				t.Fatalf("cell %d: unstable fingerprint %q / %q", i, a, b)
			}
			_ = cfg.Validate()
		}
		// A decoded matrix must survive a marshal round trip: the
		// service persists specs through JSON and replays them at
		// restart.
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of decoded matrix failed: %v", err)
		}
		var m2 Matrix
		if err := json.Unmarshal(re, &m2); err != nil {
			t.Fatalf("round trip of decoded matrix failed: %v\n%s", err, re)
		}
		plan2, err := m2.Plan()
		if err != nil {
			t.Fatalf("round trip of decoded matrix no longer plans: %v\n%s", err, re)
		}
		if plan2.NumReplicas() != replicas {
			t.Fatalf("round trip changed expansion: %d -> %d replicas", replicas, plan2.NumReplicas())
		}
	})
}
