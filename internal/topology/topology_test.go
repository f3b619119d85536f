package topology

import (
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {32, 8, 4},
		{64, 8, 8}, {128, 16, 8}, {256, 16, 16}, {512, 32, 16},
	}
	for _, c := range cases {
		tor := New(c.n)
		if tor.W != c.w || tor.H != c.h {
			t.Errorf("New(%d) = %dx%d, want %dx%d", c.n, tor.W, tor.H, c.w, c.h)
		}
		if tor.Nodes() != c.n {
			t.Errorf("New(%d).Nodes() = %d", c.n, tor.Nodes())
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	tor := New(64)
	for id := 0; id < 64; id++ {
		x, y := tor.Coord(id)
		if got := tor.ID(x, y); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestIDWraps(t *testing.T) {
	tor := New(16) // 4x4
	if tor.ID(-1, 0) != tor.ID(3, 0) {
		t.Error("negative x should wrap")
	}
	if tor.ID(0, 5) != tor.ID(0, 1) {
		t.Error("y beyond height should wrap")
	}
}

// routeIsValid checks a route's links are adjacent unit steps from src to
// dst.
func routeIsValid(tor Torus, src, dst int, links []Link) bool {
	cur := src
	for _, l := range links {
		if l.From != cur {
			return false
		}
		fx, fy := tor.Coord(l.From)
		tx, ty := tor.Coord(l.To)
		dx := (tx - fx + tor.W) % tor.W
		dy := (ty - fy + tor.H) % tor.H
		manhattan := 0
		if dx == 1 || dx == tor.W-1 {
			manhattan++
		} else if dx != 0 {
			return false
		}
		if dy == 1 || dy == tor.H-1 {
			manhattan++
		} else if dy != 0 {
			return false
		}
		if manhattan != 1 {
			return false
		}
		cur = l.To
	}
	return cur == dst
}

func TestRouteProperties(t *testing.T) {
	for _, n := range []int{4, 16, 64, 128} {
		tor := New(n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				r := tor.Route(src, dst)
				if !routeIsValid(tor, src, dst, r) {
					t.Fatalf("n=%d invalid route %d->%d: %v", n, src, dst, r)
				}
				if len(r) != tor.Distance(src, dst) {
					t.Fatalf("n=%d route %d->%d length %d != distance %d",
						n, src, dst, len(r), tor.Distance(src, dst))
				}
			}
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tor := New(64)
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			if tor.Distance(a, b) != tor.Distance(b, a) {
				t.Fatalf("distance asymmetric %d<->%d", a, b)
			}
		}
	}
}

func TestMaxDistance(t *testing.T) {
	tor := New(64) // 8x8: diameter 4+4
	longest := 0
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			longest = max(longest, tor.Distance(a, b))
		}
	}
	if longest != 8 {
		t.Fatalf("longest distance = %d, want the 8x8 diameter 8", longest)
	}
}

func TestMulticastTreeReachesAll(t *testing.T) {
	tor := New(64)
	dsts := []int{1, 7, 13, 42, 63, 31}
	tree := tor.MulticastTree(0, dsts)
	reached := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, l := range tree[n] {
			if !reached[l.To] {
				reached[l.To] = true
				frontier = append(frontier, l.To)
			}
		}
	}
	for _, d := range dsts {
		if !reached[d] {
			t.Fatalf("multicast tree misses destination %d", d)
		}
	}
}

func TestMulticastTreeCheaperThanUnicasts(t *testing.T) {
	tor := New(64)
	var dsts []int
	for i := 1; i < 64; i++ {
		dsts = append(dsts, i)
	}
	treeLinks := tor.TreeLinkCount(0, dsts)
	unicastLinks := 0
	for _, d := range dsts {
		unicastLinks += tor.Distance(0, d)
	}
	if treeLinks >= unicastLinks {
		t.Fatalf("tree links %d not cheaper than unicast links %d", treeLinks, unicastLinks)
	}
	// A broadcast tree must touch at least N-1 links.
	if treeLinks < 63 {
		t.Fatalf("broadcast tree has only %d links, cannot reach 63 nodes", treeLinks)
	}
}

func TestMulticastTreeDedupes(t *testing.T) {
	tor := New(16)
	tree := tor.MulticastTree(0, []int{5, 5, 5})
	seen := map[Link]bool{}
	for _, ls := range tree {
		for _, l := range ls {
			if seen[l] {
				t.Fatalf("duplicate link %v in tree", l)
			}
			seen[l] = true
		}
	}
}

func TestRoutePropertyQuick(t *testing.T) {
	tor := New(256)
	f := func(a, b uint16) bool {
		src, dst := int(a)%256, int(b)%256
		return routeIsValid(tor, src, dst, tor.Route(src, dst))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
