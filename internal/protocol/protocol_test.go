package protocol

import (
	"testing"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
)

func testEnv(n int) *Env {
	eng := &event.Engine{}
	net := interconnect.New(eng, n, interconnect.DefaultConfig())
	return DefaultEnv(eng, net, n)
}

func TestHomeOfInterleaving(t *testing.T) {
	env := testEnv(16)
	// Consecutive blocks interleave round-robin across nodes.
	for i := 0; i < 64; i++ {
		a := msg.Addr(i * env.BlockSize)
		want := msg.NodeID(i % 16)
		if got := env.HomeOf(a); got != want {
			t.Fatalf("HomeOf(%#x) = %v, want %v", uint64(a), got, want)
		}
	}
	// Same block, any offset... blocks are pre-aligned in this design;
	// adjacent addresses within one block share a home.
	if env.HomeOf(0x40) != env.HomeOf(0x40) {
		t.Fatal("HomeOf not deterministic")
	}
}

func TestTimeoutAdaptsToRTT(t *testing.T) {
	env := testEnv(4)
	b := NewBase(0, env, directory.FullMap(env.N), env.Tokens)
	initial := b.Timeout()
	for i := 0; i < 100; i++ {
		b.ObserveRTT(1000)
	}
	if b.Timeout() <= initial {
		t.Fatal("timeout did not grow with observed RTTs")
	}
	if got := b.Timeout(); got < 1900 || got > 2100 {
		t.Fatalf("timeout = %d, want ~2x1000", got)
	}
	for i := 0; i < 200; i++ {
		b.ObserveRTT(10)
	}
	if b.Timeout() != 64 {
		t.Fatalf("timeout floor = %d, want 64", b.Timeout())
	}
}

func TestOthersExcept(t *testing.T) {
	env := testEnv(4)
	b := NewBase(2, env, directory.FullMap(env.N), env.Tokens)
	got := b.OthersExcept()
	if len(got) != 3 {
		t.Fatalf("%d destinations", len(got))
	}
	for _, d := range got {
		if d == 2 {
			t.Fatal("self included")
		}
	}
}

func TestL1FilterSubset(t *testing.T) {
	env := testEnv(4)
	b := NewBase(0, env, directory.FullMap(env.N), env.Tokens)
	if b.InL1(0x40) {
		t.Fatal("phantom L1 hit")
	}
	b.TouchL1(0x40)
	if !b.InL1(0x40) {
		t.Fatal("L1 install failed")
	}
	b.InvalidateL1(0x40)
	if b.InL1(0x40) {
		t.Fatal("L1 invalidation failed")
	}
	b.InvalidateL1(0x80) // absent: no-op
}

func TestResetStatsKeepsState(t *testing.T) {
	env := testEnv(4)
	b := NewBase(0, env, directory.FullMap(env.N), env.Tokens)
	b.St.Misses = 7
	b.TouchL1(0x40)
	b.ObserveRTT(500)
	to := b.Timeout()
	b.ResetStats()
	if b.St.Misses != 0 {
		t.Fatal("stats survived reset")
	}
	if !b.InL1(0x40) {
		t.Fatal("reset dropped cache contents")
	}
	if b.Timeout() != to {
		t.Fatal("reset clobbered the RTT estimate")
	}
}

func TestHitLatencies(t *testing.T) {
	env := testEnv(4)
	b := NewBase(0, env, directory.FullMap(env.N), env.Tokens)
	if b.HitLatency(1) != event.Time(env.L1Latency) {
		t.Fatal("L1 latency wrong")
	}
	if b.HitLatency(2) != event.Time(env.L2Latency) {
		t.Fatal("L2 latency wrong")
	}
}

func TestDefaultEnvPaperParameters(t *testing.T) {
	env := testEnv(64)
	if env.L2Latency != 12 || env.DirLatency != 16 || env.DRAMLatency != 80 {
		t.Fatalf("latencies diverge from §8.1: %+v", env)
	}
	if env.L1Bytes != 64<<10 || env.L2Bytes != 1<<20 {
		t.Fatalf("cache sizes diverge from §8.1: %+v", env)
	}
	if env.BlockSize != 64 {
		t.Fatal("block size must be 64 bytes")
	}
	if env.Tokens != 64 {
		t.Fatal("token count must match core count")
	}
}
