package sim_test

import (
	"testing"

	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/sim"
)

// benchRecipients prices the recipient side of a broadcast on a warmed
// 64-core system: one op hands a DirectGetS for a block no L2 holds to
// every node but the requester and the block's home (62 Handle calls),
// each its own pooled copy, released after the handler returns as the
// network releases a delivered message. The blocks rotate over 4,096
// that no run touches, and the requester over every node but the home.
// Only the exported API is used.
func benchRecipients(b *testing.B, cfg sim.Config) {
	cfg.Cores, cfg.OpsPerCore, cfg.WarmupOps, cfg.Workload, cfg.Seed = 64, 50, 125, "oltp", 1
	s, err := sim.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	// Every workload's regions start at byte 1<<36.
	blocks := make([]msg.Addr, 4096)
	for i := range blocks {
		blocks[i] = msg.Addr((1<<20 + i*7919) * msg.BlockBytes)
		for _, n := range s.Nodes {
			if n.Shared().L2.Lookup(blocks[i]) != nil {
				b.Fatalf("block %#x is held", uint64(blocks[i]))
			}
		}
	}
	op := func(i int) {
		a := blocks[i%len(blocks)]
		home := s.Env.HomeOf(a)
		req := (home + 1 + msg.NodeID(i%(len(s.Nodes)-1))) % msg.NodeID(len(s.Nodes))
		now := s.Eng.Now()
		for d, n := range s.Nodes {
			if dst := msg.NodeID(d); dst != req && dst != home {
				m := s.Net.NewMessage(msg.Message{
					Type: msg.DirectGetS, Addr: a, Src: req, Dst: dst, Requester: req,
					BestEffort: cfg.BestEffort,
				})
				n.Handle(now, m)
				s.Net.Release(m)
			}
		}
	}
	for i := 0; i < len(blocks); i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkRecipientsTokenB is TokenB's transient-request recipients.
func BenchmarkRecipientsTokenB(b *testing.B) {
	benchRecipients(b, sim.Config{Protocol: sim.TokenB})
}

// BenchmarkRecipientsPATCHAll is PATCH-All's direct-request recipients.
func BenchmarkRecipientsPATCHAll(b *testing.B) {
	benchRecipients(b, sim.Config{Protocol: sim.PATCH, Policy: predictor.All, BestEffort: true})
}
