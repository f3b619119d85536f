package fault

import (
	"reflect"
	"testing"
)

func TestZeroPlanDisabled(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
	if (*Plan)(nil).Enabled() {
		t.Fatal("nil plan reports Enabled")
	}
	// Degenerate sub-configs must not enable the plan either.
	degenerate := []Plan{
		{Seed: 7},
		{Degrade: []Window{{FromCycle: 10, ToCycle: 5, Multiplier: 4}}},  // empty range
		{Degrade: []Window{{FromCycle: 0, ToCycle: 100, Multiplier: 1}}}, // identity multiplier
		{Burst: &Burst{Period: 100, Duration: 0, ExtraCycles: 5}},
		{Burst: &Burst{Period: 0, Duration: 10, ExtraCycles: 5}},
		{Burst: &Burst{Period: 100, Duration: 10, ExtraCycles: 0}},
	}
	for i, p := range degenerate {
		if p.Enabled() || p.Canonical() != nil {
			t.Errorf("degenerate plan %d reports Enabled: %+v", i, p)
		}
	}
}

// TestInjectorReadsCanonicalForm: an injector built from a plan and
// one built from its canonical form draw identical delays on every
// link at every cycle, so dead windows (which shift the live windows'
// indices), LinkFraction 1 and a zero burst change nothing but the
// spelling.
func TestInjectorReadsCanonicalForm(t *testing.T) {
	const links, hop = 64, 3
	dead := Window{FromCycle: 10, ToCycle: 20, Multiplier: 1}
	inverted := Window{FromCycle: 500, ToCycle: 100, Multiplier: 4}
	plans := map[string]*Plan{
		"dead windows": {Seed: 5, Degrade: []Window{
			dead, {ToCycle: 6_000, Multiplier: 3, LinkFraction: 0.5},
			inverted, {FromCycle: 2_000, ToCycle: 9_000, Multiplier: 2, LinkFraction: 0.25},
		}},
		"fraction one": {Seed: 6, Degrade: []Window{{ToCycle: 1 << 20, Multiplier: 2, LinkFraction: 1}}},
		"zero burst":   {Seed: 7, HopJitter: 3, Burst: &Burst{}},
		"mixed": {Seed: 8, HopJitter: 5,
			Degrade: []Window{dead, {FromCycle: 100, ToCycle: 5_000, Multiplier: 3, LinkFraction: 1},
				{FromCycle: 2_000, ToCycle: 9_000, Multiplier: 2, LinkFraction: 0.4}},
			Burst: &Burst{Period: 300, Duration: 40, ExtraCycles: 6}},
	}
	for name, p := range plans {
		c := p.Canonical()
		if c == nil {
			t.Fatalf("%s: live plan has no canonical form", name)
		}
		if again := c.Canonical(); !reflect.DeepEqual(again, c) {
			t.Errorf("%s: Canonical is not idempotent: %+v then %+v", name, c, again)
		}
		a, b := New(*p, links), New(*c, links)
		for now := uint64(0); now < 10_000; now += 37 {
			for li := 0; li < links; li++ {
				if x, y := a.Delay(li, now, hop), b.Delay(li, now, hop); x != y {
					t.Fatalf("%s: link %d cycle %d: plan draws %d, canonical form %d", name, li, now, x, y)
				}
			}
		}
	}
}

func TestJitterDeterministicAndOrderIndependent(t *testing.T) {
	const links = 16
	plan := Plan{Seed: 42, HopJitter: 8}

	// Reference: drive each link's stream in isolation.
	want := make([][]uint64, links)
	for li := 0; li < links; li++ {
		inj := New(plan, links)
		for k := 0; k < 32; k++ {
			want[li] = append(want[li], inj.Delay(li, uint64(k), 3))
		}
	}

	// Interleave the links in a scrambled order: each link must still
	// see exactly its isolated stream.
	inj := New(plan, links)
	got := make([][]uint64, links)
	for k := 0; k < 32; k++ {
		for i := 0; i < links; i++ {
			li := (i*7 + k*3) % links
			if len(got[li]) <= k {
				got[li] = append(got[li], inj.Delay(li, uint64(k), 3))
			}
		}
	}
	for li := 0; li < links; li++ {
		for k := range want[li] {
			if got[li][k] != want[li][k] {
				t.Fatalf("link %d draw %d: interleaved %d, isolated %d", li, k, got[li][k], want[li][k])
			}
		}
	}
}

func TestJitterBoundsAndSpread(t *testing.T) {
	plan := Plan{Seed: 1, HopJitter: 5}
	inj := New(plan, 4)
	seen := make(map[uint64]bool)
	for k := 0; k < 200; k++ {
		d := inj.Delay(0, uint64(k), 3)
		if d > 5 {
			t.Fatalf("jitter %d exceeds HopJitter 5", d)
		}
		seen[d] = true
	}
	if len(seen) < 4 {
		t.Fatalf("jitter stream hit only %d of 6 values in 200 draws", len(seen))
	}
}

func TestLinksHaveDistinctStreams(t *testing.T) {
	plan := Plan{Seed: 9, HopJitter: 1 << 16}
	inj := New(plan, 2)
	same := 0
	for k := 0; k < 64; k++ {
		a := inj.Delay(0, uint64(k), 3)
		b := inj.Delay(1, uint64(k), 3)
		if a == b {
			same++
		}
	}
	if same == 64 {
		t.Fatal("links 0 and 1 produced identical 64-draw streams")
	}
}

func TestResetRewindsStreams(t *testing.T) {
	plan := Plan{Seed: 3, HopJitter: 7, Burst: &Burst{Period: 50, Duration: 10, ExtraCycles: 2}}
	inj := New(plan, 8)
	var first []uint64
	for k := 0; k < 40; k++ {
		first = append(first, inj.Delay(k%8, uint64(k), 3))
	}
	inj.Reset(plan, 8)
	for k := 0; k < 40; k++ {
		if d := inj.Delay(k%8, uint64(k), 3); d != first[k] {
			t.Fatalf("draw %d after Reset: %d, first run %d", k, d, first[k])
		}
	}
}

func TestDegradeWindowArithmetic(t *testing.T) {
	plan := Plan{Degrade: []Window{{FromCycle: 100, ToCycle: 200, Multiplier: 4}}}
	inj := New(plan, 4)
	const hop = 3
	cases := []struct {
		now  uint64
		want uint64
	}{
		{99, 0}, {100, (4 - 1) * hop}, {150, (4 - 1) * hop}, {200, (4 - 1) * hop}, {201, 0},
	}
	for _, c := range cases {
		if d := inj.Delay(1, c.now, hop); d != c.want {
			t.Errorf("cycle %d: delay %d, want %d", c.now, d, c.want)
		}
	}
}

func TestDegradeLinkFraction(t *testing.T) {
	const links = 256
	plan := Plan{Seed: 5, Degrade: []Window{{FromCycle: 0, ToCycle: 1 << 30, Multiplier: 2, LinkFraction: 0.5}}}
	inj := New(plan, links)
	hit := 0
	for li := 0; li < links; li++ {
		if inj.Delay(li, 10, 3) > 0 {
			hit++
		}
	}
	if hit < links/4 || hit > 3*links/4 {
		t.Fatalf("LinkFraction 0.5 affected %d/%d links", hit, links)
	}

	// 0 and 1 both mean all links.
	for _, frac := range []float64{0, 1} {
		plan.Degrade[0].LinkFraction = frac
		inj.Reset(plan, links)
		for li := 0; li < links; li++ {
			if inj.Delay(li, 10, 3) == 0 {
				t.Fatalf("LinkFraction %v: link %d unaffected", frac, li)
			}
		}
	}
}

func TestBurstPeriodicity(t *testing.T) {
	plan := Plan{Seed: 11, Burst: &Burst{Period: 100, Duration: 25, ExtraCycles: 7}}
	inj := New(plan, 4)
	active := 0
	const draws = 10000
	for k := 0; k < draws; k++ {
		if inj.Delay(2, uint64(k), 3) == 7 {
			active++
		}
	}
	// Expected duty cycle 25%.
	if active < draws/5 || active > draws*3/10 {
		t.Fatalf("burst active %d/%d draws, expected ~25%%", active, draws)
	}

	// Phases are staggered: not every link bursts on the same cycle.
	plan2 := Plan{Seed: 11, Burst: &Burst{Period: 1000, Duration: 100, ExtraCycles: 7}}
	inj2 := New(plan2, 64)
	aligned := true
	for li := 1; li < 64 && aligned; li++ {
		for k := uint64(0); k < 1000; k++ {
			if (inj2.Delay(0, k, 3) == 7) != (inj2.Delay(li, k, 3) == 7) {
				aligned = false
				break
			}
		}
	}
	if aligned {
		t.Fatal("all 64 links burst in lockstep; phases not staggered")
	}
}

func TestDelayDoesNotAllocate(t *testing.T) {
	plan := Plan{Seed: 1, HopJitter: 4, Degrade: []Window{{FromCycle: 0, ToCycle: 1 << 40, Multiplier: 3, LinkFraction: 0.5}}, Burst: &Burst{Period: 64, Duration: 8, ExtraCycles: 2}}
	inj := New(plan, 16)
	n := testing.AllocsPerRun(1000, func() {
		inj.Delay(5, 123, 3)
	})
	if n != 0 {
		t.Fatalf("Delay allocates %v per call", n)
	}
}
