package interconnect

import (
	"testing"
	"unsafe"

	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/topology"
)

// allBut returns every node of an n-node network but src, ascending.
func allBut(n, src int) []msg.NodeID {
	var dsts []msg.NodeID
	for d := 0; d < n; d++ {
		if d != src {
			dsts = append(dsts, msg.NodeID(d))
		}
	}
	return dsts
}

func toInts(dsts []msg.NodeID) []int {
	out := make([]int, len(dsts))
	for i, d := range dsts {
		out[i] = int(d)
	}
	return out
}

// checkKids fails unless kids are want's links in want's order, each
// carrying the index topo.LinkIndex gives.
func checkKids(t *testing.T, topo topology.Torus, what string, from int, kids []hop, want []topology.Link) {
	t.Helper()
	if len(kids) != len(want) {
		t.Fatalf("%s: node %d has %d child links, want %d", what, from, len(kids), len(want))
	}
	for j, l := range want {
		if int(kids[j].to) != l.To || int(kids[j].li) != topo.LinkIndex(l) {
			t.Fatalf("%s: node %d child %d is {to %d, li %d}, want %v with index %d",
				what, from, j, kids[j].to, kids[j].li, l, topo.LinkIndex(l))
		}
	}
}

// TestBroadcastTreeMatchesMulticastTree pins every source's cached
// broadcast tree, child order included, to topology.MulticastTree over
// the ascending all-but-source list: the order sets which same-cycle
// event fires first, so the cache must reproduce it exactly. The cache
// survives Reset, and every cached route and tree hop carries the link
// index topology.LinkIndex gives.
func TestBroadcastTreeMatchesMulticastTree(t *testing.T) {
	for _, n := range []int{4, 16, 64, 512} {
		eng, net := newNet(n, DefaultConfig())
		delivered := 0
		for i := 0; i < n; i++ {
			net.Register(msg.NodeID(i), func(event.Time, *msg.Message) { delivered++ })
		}
		for src := 0; src < n; src++ {
			net.Multicast(net.NewMessage(msg.Message{Type: msg.DirectGetS, Src: msg.NodeID(src)}), allBut(n, src))
			eng.Run(0)
		}
		if want := n * (n - 1); delivered != want {
			t.Fatalf("%d nodes: %d deliveries, want %d", n, delivered, want)
		}
		net.Reset(DefaultConfig())
		topo := net.topo
		bytes := 0
		for src := 0; src < n; src++ {
			tr := net.bcast[src]
			if tr.first == nil {
				t.Fatalf("%d nodes: no broadcast tree cached for source %d", n, src)
			}
			bytes += cap(tr.first)*int(unsafe.Sizeof(tr.first[0])) + cap(tr.kids)*int(unsafe.Sizeof(hop{}))
			ref := topo.MulticastTree(src, toInts(allBut(n, src)))
			for v := 0; v < n; v++ {
				checkKids(t, topo, "tree", v, tr.kids[tr.first[v]:tr.first[v+1]], ref[v])
			}
			for dst := 0; dst < n; dst++ {
				if r := net.routes[src*n+dst]; r != nil {
					links := topo.Route(src, dst)
					if len(r) != len(links) {
						t.Fatalf("route %d->%d: %d hops cached, want %d", src, dst, len(r), len(links))
					}
					from := src
					for j, l := range links {
						checkKids(t, topo, "route", from, r[j:j+1], []topology.Link{l})
						from = l.To
					}
				}
			}
		}
		t.Logf("%d nodes: the %d broadcast trees take %d bytes", n, n, bytes)
	}
}

// TestNonBroadcastListsKeepTheirOwnTree sends lists of length N-1 that
// are not the ascending all-but-source list. Each must build its own
// tree, deliver exactly its own destinations once each, and charge each
// link of topology.MulticastTree's tree over the list once.
func TestNonBroadcastListsKeepTheirOwnTree(t *testing.T) {
	const n, src = 16, 5
	descending := allBut(n, src)
	for i, j := 0, len(descending)-1; i < j; i, j = i+1, j-1 {
		descending[i], descending[j] = descending[j], descending[i]
	}
	duplicate := allBut(n, src)
	duplicate[8] = duplicate[7] // node 9 is replaced by a second 8
	withSource := allBut(n, src)
	withSource[8] = src // node 9 is replaced by the source itself
	for name, dsts := range map[string][]msg.NodeID{
		"descending": descending, "duplicate": duplicate, "with-source": withSource,
	} {
		eng, net := newNet(n, DefaultConfig())
		var s sink
		s.register(net, n)
		m := net.NewMessage(msg.Message{Type: msg.DirectGetS, Src: src})
		bytesPerLink := uint64(m.Bytes())
		net.Multicast(m, dsts)
		eng.Run(0)
		if net.bcast[src].first != nil {
			t.Fatalf("%s: list walked as a full broadcast", name)
		}
		want := map[msg.NodeID]bool{}
		for _, d := range dsts {
			want[d] = true
		}
		got := map[msg.NodeID]int{}
		for _, m := range s.got {
			got[m.Dst]++
		}
		for d := range want {
			if got[d] != 1 {
				t.Fatalf("%s: node %d received %d copies, want 1", name, d, got[d])
			}
		}
		if len(s.got) != len(want) {
			t.Fatalf("%s: %d deliveries to %d destinations", name, len(s.got), len(want))
		}
		links := 0
		for _, ls := range net.topo.MulticastTree(src, toInts(dsts)) {
			links += len(ls)
		}
		if wantBytes := bytesPerLink * uint64(links); net.Stats.LinkBytes != wantBytes {
			t.Fatalf("%s: charged %d link bytes, want %d (%d tree links)", name, net.Stats.LinkBytes, wantBytes, links)
		}
	}
}

// TestBuiltTreeMatchesMulticastTree pins the per-walk tree, child order
// included, to topology.MulticastTree for lists the broadcast cache does
// not serve.
func TestBuiltTreeMatchesMulticastTree(t *testing.T) {
	const n = 64
	_, net := newNet(n, DefaultConfig())
	lists := [][]msg.NodeID{
		{63, 40, 9, 1, 33, 17},
		{2, 3, 5, 8, 13, 21, 34, 55, 0},
	}
	for src := 0; src < n; src += 7 {
		for _, dsts := range lists {
			w := net.newWalk(net.NewMessage(msg.Message{Type: msg.Fwd, Src: msg.NodeID(src)}), 0)
			net.buildTree(w, src, dsts)
			ref := net.topo.MulticastTree(src, toInts(dsts))
			for v := 0; v < n; v++ {
				checkKids(t, net.topo, "built tree", v, w.kids(v), ref[v])
			}
			net.walkDone(w)
		}
	}
}
