package patch

import "testing"

func TestRunDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Run(Config{
		Protocol: PATCH, Variant: VariantAll,
		Cores: 16, Workload: "oltp", OpsPerCore: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Misses == 0 || r.BytesPerMiss <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if len(r.TrafficByClass) == 0 {
		t.Fatal("missing traffic breakdown")
	}
	if r.TrafficByClass["Dir. Req."] == 0 {
		t.Fatal("PATCH-All produced no direct-request traffic")
	}
}

func TestRunAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range []Protocol{Directory, PATCH, TokenB} {
		r, err := Run(Config{Protocol: p, Cores: 16, Workload: "micro", OpsPerCore: 150, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.Cycles == 0 {
			t.Fatalf("%v: zero runtime", p)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range append(Variants(), VariantAllNonAdaptive) {
		if v.String() == "" || v.String()[0] != 'P' {
			t.Fatalf("variant %d renders %q", v, v)
		}
	}
}

func TestWorkloadsOrder(t *testing.T) {
	w := Workloads()
	if len(w) != 5 || w[0] != "jbb" || w[4] != "ocean" {
		t.Fatalf("workloads = %v", w)
	}
}

func TestUnboundedBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Run(Config{
		Protocol: Directory, Cores: 16, Workload: "micro",
		OpsPerCore: 100, Seed: 3, UnboundedBandwidth: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("zero runtime")
	}
}

func TestCoarsenessPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Run(Config{
		Protocol: Directory, Cores: 16, Workload: "micro",
		OpsPerCore: 100, Seed: 3, DirectoryCoarseness: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("zero runtime")
	}
}
