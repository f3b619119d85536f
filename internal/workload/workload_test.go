package workload

import (
	"testing"

	"patch/internal/msg"
)

func TestNamedKnownWorkloads(t *testing.T) {
	for _, name := range Names() {
		if _, err := Named(name, 64, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Named("nope", 64, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, _ := Named("oltp", 16, 42)
	b, _ := Named("oltp", 16, 42)
	for i := 0; i < 1000; i++ {
		core := i % 16
		if a.Next(core) != b.Next(core) {
			t.Fatal("same seed produced different streams")
		}
	}
	c, _ := Named("oltp", 16, 43)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next(0) != c.Next(0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestAddressesBlockAligned(t *testing.T) {
	for _, name := range Names() {
		g, _ := Named(name, 16, 7)
		for i := 0; i < 2000; i++ {
			op := g.Next(i % 16)
			if uint64(op.Addr)%BlockSize != 0 {
				t.Fatalf("%s: unaligned address %#x", name, uint64(op.Addr))
			}
			if op.Think < 0 {
				t.Fatalf("%s: negative think time", name)
			}
		}
	}
}

func TestMicroWriteFraction(t *testing.T) {
	g, err := newMicro(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	writes, n := 0, 20000
	for i := 0; i < n; i++ {
		if g.Next(i % 4).Write {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("micro write fraction = %.3f, want ~0.30 (paper §8.1)", frac)
	}
}

func TestMicroTableSize(t *testing.T) {
	g, err := newMicro(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[msg.Addr]bool{}
	for i := 0; i < 200000; i++ {
		seen[g.Next(i%4).Addr] = true
	}
	// 16K distinct locations (paper §8.1).
	if len(seen) > 16*1024 {
		t.Fatalf("micro touches %d blocks, want <= 16384", len(seen))
	}
	if len(seen) < 16*1024*9/10 {
		t.Fatalf("micro touches only %d blocks of 16384", len(seen))
	}
}

// TestDomainIsolation verifies the 4x16 consolidation property: cores in
// different 16-core domains never touch the same shared block.
func TestDomainIsolation(t *testing.T) {
	g, _ := Named("oltp", 64, 3)
	blocksByDomain := make([]map[msg.Addr]bool, 4)
	for d := range blocksByDomain {
		blocksByDomain[d] = map[msg.Addr]bool{}
	}
	for i := 0; i < 64000; i++ {
		core := i % 64
		op := g.Next(core)
		blocksByDomain[core/16][op.Addr] = true
	}
	for d1 := 0; d1 < 4; d1++ {
		for d2 := d1 + 1; d2 < 4; d2++ {
			for a := range blocksByDomain[d1] {
				if blocksByDomain[d2][a] {
					t.Fatalf("block %#x shared across domains %d and %d", uint64(a), d1, d2)
				}
			}
		}
	}
}

// TestMigratoryPairing: a migratory read is followed by a write to the
// same block by the same core (the lock-protected read-modify-write the
// migratory optimisation targets).
func TestMigratoryPairing(t *testing.T) {
	g, _ := Named("oltp", 16, 9)
	pending := make(map[int]msg.Addr)
	found := 0
	for i := 0; i < 20000; i++ {
		core := i % 16
		op := g.Next(core)
		if a, ok := pending[core]; ok {
			if op.Addr != a || !op.Write {
				t.Fatalf("migratory read of %#x not followed by its write (got %#x write=%v)",
					uint64(a), uint64(op.Addr), op.Write)
			}
			delete(pending, core)
			found++
			continue
		}
		if uint64(op.Addr)>>36 == 0x3 && !op.Write { // migratory region read
			pending[core] = op.Addr
		}
	}
	if found == 0 {
		t.Fatal("no migratory pairs observed in oltp")
	}
}

func TestSharingCharacterDiffers(t *testing.T) {
	// ocean must have a much lower shared fraction than oltp.
	frac := func(name string) float64 {
		g, _ := Named(name, 16, 5)
		shared := 0
		const n = 20000
		for i := 0; i < n; i++ {
			op := g.Next(i % 16)
			top := uint64(op.Addr) >> 36
			if top == 0x2 || top == 0x3 || top == 0x4 {
				shared++
			}
		}
		return float64(shared) / n
	}
	if frac("ocean") >= frac("oltp") {
		t.Fatalf("ocean shared fraction %.3f >= oltp %.3f", frac("ocean"), frac("oltp"))
	}
}

func TestSmallSystemDomains(t *testing.T) {
	// With fewer than 16 cores the domain shrinks to the system size.
	g, err := Named("jbb", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Next(i % 4) // must not panic
	}
}
