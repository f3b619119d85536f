package addrmap

import (
	"testing"

	"patch/internal/msg"
)

// benchKeys is the number of blocks a benchmark map holds: a few
// thousand, as a 64-core run's holder index or a home's directory does.
const benchKeys = 4096

// benchAddrs returns n block addresses with a stride that spreads them
// over the hash's range: offset 0 gives the held keys, offset 1 keys
// that are never inserted.
func benchAddrs(n, offset int) []msg.Addr {
	a := make([]msg.Addr, n)
	for i := range a {
		a[i] = msg.Addr((2*i*7919 + offset) * msg.BlockBytes)
	}
	return a
}

// sinkInt keeps Get's results live.
var sinkInt int32

// benchGet times Get over probes on a map holding benchKeys blocks.
func benchGet(b *testing.B, probes []msg.Addr) {
	var m Map[int32]
	for i, a := range benchAddrs(benchKeys, 0) {
		*m.Ptr(a) = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(probes[i%len(probes)])
		sinkInt += v
	}
}

// BenchmarkGetHit looks up the blocks the map holds, in turn.
func BenchmarkGetHit(b *testing.B) { benchGet(b, benchAddrs(benchKeys, 0)) }

// BenchmarkGetMiss looks up blocks the map does not hold.
func BenchmarkGetMiss(b *testing.B) { benchGet(b, benchAddrs(benchKeys, 1)) }

// BenchmarkPtrInsert inserts benchKeys blocks into a map cleared after
// each round, as a Reset-reused system's tables refill: one op is one
// insert, and the cleared map keeps its grown capacity.
func BenchmarkPtrInsert(b *testing.B) {
	keys := benchAddrs(benchKeys, 0)
	var m Map[int32]
	for _, a := range keys {
		*m.Ptr(a) = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchKeys == 0 {
			m.Clear()
		}
		*m.Ptr(keys[i%benchKeys]) = 1
	}
}
