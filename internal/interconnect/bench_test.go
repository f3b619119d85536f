package interconnect_test

import (
	"math"
	"testing"

	"patch/internal/event"
	"patch/internal/fault"
	"patch/internal/interconnect"
	"patch/internal/msg"
)

// The interconnect's own costs on the paper's 64-core torus at
// DefaultConfig: a unicast, a full broadcast and a partial multicast,
// each with and without fault injection. An iteration sends one message
// and drains the engine, so it prices routing, per-link contention,
// delivery and, for multicasts, the fan-out walk. Only the exported API
// is used.

const benchNodes = 64

// benchPlan injects every fault class on every crossing: hop jitter, a
// degradation window over half the links that spans the whole run (so
// the cost does not depend on b.N), and staggered congestion bursts.
func benchPlan() *fault.Plan {
	return &fault.Plan{
		Seed:      1,
		HopJitter: 4,
		Degrade:   []fault.Window{{FromCycle: 0, ToCycle: math.MaxUint64, Multiplier: 3, LinkFraction: 0.5}},
		Burst:     &fault.Burst{Period: 1000, Duration: 100, ExtraCycles: 2},
	}
}

// benchNetwork times send(net, i) plus a drained engine per iteration,
// without and with benchPlan. A warm-up lap first sends lap messages,
// enough for send to visit every route or tree it uses, so caches and
// pools are at their high-water marks before the timer starts.
func benchNetwork(b *testing.B, lap int, send func(net *interconnect.Network, i int)) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{{"nofault", nil}, {"faults", benchPlan()}} {
		b.Run(tc.name, func(b *testing.B) {
			eng := &event.Engine{}
			cfg := interconnect.DefaultConfig()
			cfg.Fault = tc.plan
			net := interconnect.New(eng, benchNodes, cfg)
			for i := 0; i < benchNodes; i++ {
				net.Register(msg.NodeID(i), func(event.Time, *msg.Message) {})
			}
			for i := 0; i < lap; i++ {
				send(net, i)
				eng.Run(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(net, i)
				eng.Run(0)
			}
		})
	}
}

// BenchmarkSend is a unicast request; a lap of 64x63 sends covers every
// ordered (source, destination) pair.
func BenchmarkSend(b *testing.B) {
	benchNetwork(b, benchNodes*(benchNodes-1), func(net *interconnect.Network, i int) {
		src := i % benchNodes
		dst := (src + 1 + i/benchNodes%(benchNodes-1)) % benchNodes
		net.Send(net.NewMessage(msg.Message{Type: msg.GetS, Src: msg.NodeID(src), Dst: msg.NodeID(dst)}))
	})
}

// BenchmarkBroadcast is a 63-way request to every other node in
// ascending order, the list TokenB's and PATCH-All's requests go to,
// from a rotating source.
func BenchmarkBroadcast(b *testing.B) {
	others := make([][]msg.NodeID, benchNodes)
	for src := range others {
		for d := 0; d < benchNodes; d++ {
			if d != src {
				others[src] = append(others[src], msg.NodeID(d))
			}
		}
	}
	benchNetwork(b, benchNodes, func(net *interconnect.Network, i int) {
		src := i % benchNodes
		net.Multicast(net.NewMessage(msg.Message{Type: msg.DirectGetS, Src: msg.NodeID(src)}), others[src])
	})
}

// BenchmarkMulticast8 is an 8-way forward, as to a block's sharers,
// from a rotating source to nodes spread over the torus.
func BenchmarkMulticast8(b *testing.B) {
	sharers := make([][]msg.NodeID, benchNodes)
	for src := range sharers {
		for k := 0; k < 8; k++ {
			sharers[src] = append(sharers[src], msg.NodeID((src+1+8*k)%benchNodes))
		}
	}
	benchNetwork(b, benchNodes, func(net *interconnect.Network, i int) {
		src := i % benchNodes
		net.Multicast(net.NewMessage(msg.Message{Type: msg.Fwd, Src: msg.NodeID(src), IsWrite: true}), sharers[src])
	})
}
