package interconnect

import (
	"testing"

	"patch/internal/event"
	"patch/internal/msg"
)

func newNet(n int, cfg Config) (*event.Engine, *Network) {
	eng := &event.Engine{}
	net := New(eng, n, cfg)
	return eng, net
}

// sink registers a recording handler for every node. Delivered messages
// are recorded by value: the network recycles pooled messages once the
// handler returns, so retaining the pointer would observe reuse.
type sink struct {
	got []msg.Message
	at  []event.Time
}

func (s *sink) register(net *Network, n int) {
	for i := 0; i < n; i++ {
		net.Register(msg.NodeID(i), func(now event.Time, m *msg.Message) {
			s.got = append(s.got, *m)
			s.at = append(s.at, now)
		})
	}
}

func TestUnicastLatency(t *testing.T) {
	cfg := Config{BytesPerKiloCycle: 16000, HopLatency: 3, RouteOverhead: 3, DropAfter: 100}
	eng, net := newNet(16, cfg) // 4x4 torus
	var s sink
	s.register(net, 16)
	net.Send(&msg.Message{Type: msg.GetS, Src: 0, Dst: 1})
	eng.Run(0)
	if len(s.got) != 1 {
		t.Fatalf("delivered %d messages", len(s.got))
	}
	// 1 hop: overhead 3 + serialization ceil(8*1000/16000)=1 + hop 3 = 7.
	if s.at[0] != 7 {
		t.Fatalf("delivery at %d, want 7", s.at[0])
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, net := newNet(4, DefaultConfig())
	var s sink
	s.register(net, 4)
	net.Send(&msg.Message{Type: msg.GetS, Src: 2, Dst: 2})
	eng.Run(0)
	if len(s.got) != 1 || s.at[0] != 1 {
		t.Fatalf("local delivery: %d msgs at %v", len(s.got), s.at)
	}
	if net.Stats.LinkBytes != 0 {
		t.Fatal("local delivery consumed link bandwidth")
	}
}

func TestSerializationContention(t *testing.T) {
	// 1 byte/cycle links: a 72-byte data message occupies a link 72
	// cycles; two back-to-back messages on the same link serialize.
	cfg := Config{BytesPerKiloCycle: 1000, HopLatency: 1, RouteOverhead: 0, DropAfter: 1 << 20}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	eng.Run(0)
	if len(s.got) != 2 {
		t.Fatalf("delivered %d", len(s.got))
	}
	if s.at[0] != 73 { // 72 serialization + 1 hop
		t.Fatalf("first at %d, want 73", s.at[0])
	}
	if s.at[1] != 145 { // queued behind the first: 72+72+1
		t.Fatalf("second at %d, want 145", s.at[1])
	}
	if net.Stats.QueueCycles == 0 {
		t.Fatal("queueing not recorded")
	}
}

func TestUnboundedIgnoresBandwidth(t *testing.T) {
	cfg := Config{Unbounded: true, HopLatency: 2, RouteOverhead: 0}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	for i := 0; i < 10; i++ {
		net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	}
	eng.Run(0)
	for _, at := range s.at {
		if at != 2 {
			t.Fatalf("unbounded delivery at %v, want all at 2", s.at)
		}
	}
}

func TestBestEffortInvisibleToNormal(t *testing.T) {
	// A flood of best-effort traffic must not delay a normal message.
	cfg := Config{BytesPerKiloCycle: 1000, HopLatency: 1, RouteOverhead: 0, DropAfter: 1 << 20}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	for i := 0; i < 20; i++ {
		net.Send(&msg.Message{Type: msg.DirectGetM, Src: 0, Dst: 1, BestEffort: true})
	}
	net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	eng.Run(0)
	var normalAt event.Time
	for i, m := range s.got {
		if !m.BestEffort {
			normalAt = s.at[i]
		}
	}
	if normalAt != 73 { // as if alone on the link
		t.Fatalf("normal message delayed to %d by best-effort flood", normalAt)
	}
}

func TestBestEffortDropsWhenStale(t *testing.T) {
	// Normal traffic saturates the link; best-effort messages exceed the
	// 100-cycle staleness bound and are dropped.
	cfg := Config{BytesPerKiloCycle: 1000, HopLatency: 1, RouteOverhead: 0, DropAfter: 100}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	for i := 0; i < 5; i++ {
		net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	}
	net.Send(&msg.Message{Type: msg.DirectGetM, Src: 0, Dst: 1, BestEffort: true})
	eng.Run(0)
	if net.Stats.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", net.Stats.Dropped)
	}
	for _, m := range s.got {
		if m.BestEffort {
			t.Fatal("stale best-effort message was delivered")
		}
	}
}

func TestBestEffortDeliveredWhenIdle(t *testing.T) {
	cfg := Config{BytesPerKiloCycle: 1000, HopLatency: 1, RouteOverhead: 0, DropAfter: 100}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	net.Send(&msg.Message{Type: msg.DirectGetM, Src: 0, Dst: 1, BestEffort: true})
	eng.Run(0)
	if len(s.got) != 1 || net.Stats.Dropped != 0 {
		t.Fatalf("idle best-effort: delivered=%d dropped=%d", len(s.got), net.Stats.Dropped)
	}
}

func TestMulticastReachesAllAndChargesTreeOnce(t *testing.T) {
	cfg := Config{BytesPerKiloCycle: 16000, HopLatency: 1, RouteOverhead: 0, DropAfter: 100}
	eng, net := newNet(16, cfg)
	var s sink
	s.register(net, 16)
	var dsts []msg.NodeID
	for i := 1; i < 16; i++ {
		dsts = append(dsts, msg.NodeID(i))
	}
	net.Multicast(&msg.Message{Type: msg.Fwd, Src: 0}, dsts)
	eng.Run(0)
	if len(s.got) != 15 {
		t.Fatalf("multicast delivered %d, want 15", len(s.got))
	}
	seen := map[msg.NodeID]bool{}
	for _, m := range s.got {
		seen[m.Dst] = true
	}
	if len(seen) != 15 {
		t.Fatal("duplicate or missing destinations")
	}
	// Fan-out: tree links < sum of unicast route lengths.
	treeBytes := net.Stats.LinkBytes
	eng2, net2 := newNet(16, cfg)
	var s2 sink
	s2.register(net2, 16)
	for _, d := range dsts {
		net2.Send(&msg.Message{Type: msg.Fwd, Src: 0, Dst: d})
	}
	eng2.Run(0)
	if treeBytes >= net2.Stats.LinkBytes {
		t.Fatalf("multicast bytes %d not cheaper than unicasts %d", treeBytes, net2.Stats.LinkBytes)
	}
}

func TestMulticastToSelfOnly(t *testing.T) {
	eng, net := newNet(4, DefaultConfig())
	var s sink
	s.register(net, 4)
	net.Multicast(&msg.Message{Type: msg.Fwd, Src: 1}, []msg.NodeID{1})
	eng.Run(0)
	if len(s.got) != 1 || s.got[0].Dst != 1 {
		t.Fatal("self multicast failed")
	}
}

func TestTrafficAccounting(t *testing.T) {
	cfg := Config{BytesPerKiloCycle: 16000, HopLatency: 1, RouteOverhead: 0, DropAfter: 100}
	eng, net := newNet(4, cfg) // 2x2
	var s sink
	s.register(net, 4)
	net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1}) // 1 hop, 72B
	net.Send(&msg.Message{Type: msg.GetS, Src: 0, Dst: 3})                // 2 hops, 8B
	eng.Run(0)
	if got := net.Stats.BytesByClass[msg.ClassData]; got != 72 {
		t.Fatalf("data bytes = %d, want 72", got)
	}
	if got := net.Stats.BytesByClass[msg.ClassIndirectReq]; got != 16 {
		t.Fatalf("indirect bytes = %d, want 16", got)
	}
	if net.Stats.LinkBytes != 88 {
		t.Fatalf("total = %d, want 88", net.Stats.LinkBytes)
	}
	if net.Stats.Delivered != 2 {
		t.Fatalf("delivered = %d", net.Stats.Delivered)
	}
}

func TestUnregisteredPanics(t *testing.T) {
	eng, net := newNet(4, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("message to unregistered node did not panic")
		}
	}()
	net.Send(&msg.Message{Type: msg.GetS, Src: 0, Dst: 1})
	eng.Run(0)
}
