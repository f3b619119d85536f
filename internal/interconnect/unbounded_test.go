package interconnect

import (
	"testing"

	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/topology"
)

func TestUnboundedMulticast(t *testing.T) {
	cfg := Config{Unbounded: true, HopLatency: 2, RouteOverhead: 0}
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
		t.Fatalf("delivered %d, want 15", len(s.got))
	}
	// Unbounded delivery time is purely hop latency x tree depth.
	topo := topology.New(16)
	for i, m := range s.got {
		want := event.Time(cfg.HopLatency * topo.Distance(0, int(m.Dst)))
		if s.at[i] != want {
			t.Fatalf("dst %d delivered at %d, want %d", m.Dst, s.at[i], want)
		}
	}
}

func TestUnboundedNeverDrops(t *testing.T) {
	cfg := Config{Unbounded: true, HopLatency: 1, RouteOverhead: 0, DropAfter: 1}
	eng, net := newNet(4, cfg)
	var s sink
	s.register(net, 4)
	for i := 0; i < 50; i++ {
		net.Send(&msg.Message{Type: msg.DirectGetM, Src: 0, Dst: 1, BestEffort: true})
	}
	eng.Run(0)
	if net.Stats.Dropped != 0 || len(s.got) != 50 {
		t.Fatalf("unbounded dropped %d, delivered %d", net.Stats.Dropped, len(s.got))
	}
}

func TestOnSendOnDeliverHooks(t *testing.T) {
	eng, net := newNet(4, DefaultConfig())
	var s sink
	s.register(net, 4)
	sent, delivered := 0, 0
	net.OnSend = func(event.Time, *msg.Message) { sent++ }
	net.OnDeliver = func(event.Time, *msg.Message) { delivered++ }
	net.Send(&msg.Message{Type: msg.GetS, Src: 0, Dst: 1})
	net.Multicast(&msg.Message{Type: msg.Fwd, Src: 0}, []msg.NodeID{1, 2, 3})
	eng.Run(0)
	if sent != 2 {
		t.Fatalf("OnSend fired %d times, want 2 (one per logical message)", sent)
	}
	if delivered != 4 {
		t.Fatalf("OnDeliver fired %d times, want 4 (one per copy)", delivered)
	}
}

func TestSingleDestinationMulticastHooks(t *testing.T) {
	// A single-destination multicast must not double-fire OnSend.
	eng, net := newNet(4, DefaultConfig())
	var s sink
	s.register(net, 4)
	sent := 0
	net.OnSend = func(event.Time, *msg.Message) { sent++ }
	net.Multicast(&msg.Message{Type: msg.Fwd, Src: 0}, []msg.NodeID{2})
	eng.Run(0)
	if sent != 1 {
		t.Fatalf("OnSend fired %d times, want 1", sent)
	}
	if len(s.got) != 1 {
		t.Fatalf("delivered %d", len(s.got))
	}
}

func TestBestEffortMulticastPrunesCongestedSubtrees(t *testing.T) {
	// Saturate one outgoing link of the source with normal traffic; a
	// best-effort broadcast must still reach destinations via other
	// subtrees while the congested subtree is dropped.
	cfg := Config{BytesPerKiloCycle: 1000, HopLatency: 1, RouteOverhead: 0, DropAfter: 50}
	eng, net := newNet(16, cfg)
	var s sink
	s.register(net, 16)
	// Node 0's +x neighbour is node 1: flood that link.
	for i := 0; i < 10; i++ {
		net.Send(&msg.Message{Type: msg.Data, HasData: true, Src: 0, Dst: 1})
	}
	var dsts []msg.NodeID
	for i := 1; i < 16; i++ {
		dsts = append(dsts, msg.NodeID(i))
	}
	net.Multicast(&msg.Message{Type: msg.DirectGetM, Src: 0, BestEffort: true}, dsts)
	eng.Run(0)
	be := 0
	for _, m := range s.got {
		if m.BestEffort {
			be++
		}
	}
	if net.Stats.Dropped == 0 {
		t.Fatal("no subtree was pruned")
	}
	if be == 0 {
		t.Fatal("entire broadcast lost; only the congested subtree should drop")
	}
	if be >= 15 {
		t.Fatal("nothing was actually dropped")
	}
}
