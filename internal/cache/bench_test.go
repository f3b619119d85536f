package cache

import (
	"math/rand"
	"testing"

	"patch/internal/msg"
)

// l2Config is the paper's L2 geometry: 1 MiB, 4 ways, 64-byte blocks.
var l2Config = Config{SizeBytes: 1 << 20, Ways: 4, BlockSize: 64}

// heldBlocks is the number of blocks a benchmark L2 holds: a few
// hundred, as a node's L2 does after a short run.
const heldBlocks = 300

// sinkCache keeps BenchmarkNew's result live.
var sinkCache *Cache

// heldL2 returns an L2 holding heldBlocks blocks drawn below block
// 1<<20 by a generator seeded with seed, and their addresses in a
// shuffled order. A non-nil h is the holder index the L2 joins first,
// under node id seed.
func heldL2(seed int64, h *Holders) (*Cache, []msg.Addr) {
	r := rand.New(rand.NewSource(seed))
	c := New(l2Config)
	c.Join(h, int(seed))
	for i := 0; i < heldBlocks; i++ {
		c.Allocate(msg.Addr(r.Intn(1<<20) * l2Config.BlockSize))
	}
	var held []msg.Addr
	c.ForEach(func(l *Line) { held = append(held, l.Addr) })
	r.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	return c, held
}

// BenchmarkProbeAbsent looks up, in 64 L2s each holding a few hundred
// blocks, a block none of them holds: the recipient L2 checks of one
// broadcast on the paper's 64-core system. One op is 64 lookups. The
// L2s join no holder index, so each lookup probes its tags.
func BenchmarkProbeAbsent(b *testing.B) { benchProbeAbsent(b, nil) }

// BenchmarkProbeAbsentIndexed is BenchmarkProbeAbsent with the 64 L2s
// joined to one holder index, as the token-counting backends' L2s are:
// each lookup reads the block's shared index entry and probes no tags.
func BenchmarkProbeAbsentIndexed(b *testing.B) { benchProbeAbsent(b, NewHolders(64)) }

func benchProbeAbsent(b *testing.B, h *Holders) {
	caches := make([]*Cache, 64)
	for i := range caches {
		caches[i], _ = heldL2(int64(i), h)
	}
	// Blocks at 1<<20 and above are never held.
	r := rand.New(rand.NewSource(64))
	probes := make([]msg.Addr, 4096)
	for i := range probes {
		probes[i] = msg.Addr((1<<20 + r.Intn(1<<20)) * l2Config.BlockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := probes[i%len(probes)]
		for _, c := range caches {
			if c.Lookup(a) != nil {
				b.Fatal("probe found a block no cache holds")
			}
		}
	}
}

// BenchmarkAccessHit accesses the blocks an L2 holds, in turn.
func BenchmarkAccessHit(b *testing.B) {
	c, held := heldL2(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(held[i%len(held)]) == nil {
			b.Fatal("held block missed")
		}
	}
}

// BenchmarkAllocateAvoid installs blocks drawn from four times the L2's
// capacity into a full L2, so most installs evict, with the victim
// filter protecting one block as a core's outstanding miss does.
func BenchmarkAllocateAvoid(b *testing.B) {
	c := New(l2Config)
	lines := l2Config.SizeBytes / l2Config.BlockSize
	r := rand.New(rand.NewSource(2))
	stream := make([]msg.Addr, 4*lines)
	for i := range stream {
		stream[i] = msg.Addr(r.Intn(4*lines) * l2Config.BlockSize)
	}
	busy := stream[0]
	avoid := func(a msg.Addr) bool { return a == busy }
	for _, a := range stream {
		c.AllocateAvoid(a, avoid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllocateAvoid(stream[i%len(stream)], avoid)
	}
}

// BenchmarkNew builds an empty L2.
func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkCache = New(l2Config)
	}
}

// BenchmarkReset empties an L2 that held a few hundred blocks; Reset's
// cost does not depend on what the cache holds.
func BenchmarkReset(b *testing.B) {
	c, _ := heldL2(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
	}
}
