// Package topology models the 2D-torus interconnect geometry used by the
// paper's evaluation: node coordinates, dimension-order routes, and
// bandwidth-efficient fan-out multicast trees.
package topology

import "fmt"

// Torus is a W x H two-dimensional torus of nodes numbered row-major.
type Torus struct {
	W, H int
}

// New returns a torus with n nodes arranged as close to square as
// possible (the paper's systems are powers of two: 4..512 cores).
func New(n int) Torus {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid node count %d", n))
	}
	w := 1
	for w*w < n {
		w *= 2
	}
	// w is the smallest power of two with w*w >= n; try w x (n/w).
	for w > 1 && n%w != 0 {
		w /= 2
	}
	return Torus{W: w, H: n / w}
}

// Nodes returns the number of nodes in the torus.
func (t Torus) Nodes() int { return t.W * t.H }

// Coord returns the (x, y) coordinate of node id.
func (t Torus) Coord(id int) (x, y int) { return id % t.W, id / t.W }

// ID returns the node id at coordinate (x, y), wrapping around the torus.
func (t Torus) ID(x, y int) int {
	x = ((x % t.W) + t.W) % t.W
	y = ((y % t.H) + t.H) % t.H
	return y*t.W + x
}

// Link identifies a unidirectional link from one node to a neighbour.
type Link struct {
	From, To int
}

// NumLinks returns the size of the dense link-index space: every node
// owns four outgoing-direction slots (+x, -x, +y, -y). Narrow tori leave
// some slots unused; the waste is bounded and the indexing stays O(1).
func (t Torus) NumLinks() int { return 4 * t.Nodes() }

// LinkIndex maps a unidirectional neighbour link to a dense index in
// [0, NumLinks()), replacing map[Link] lookups on the contention hot
// path with slice indexing. On a 2-wide ring both directions between a
// node pair are the same Link value and map to the same slot, matching
// the Link struct's identity.
func (t Torus) LinkIndex(l Link) int {
	x1, y1 := t.Coord(l.From)
	x2, y2 := t.Coord(l.To)
	var dir int
	switch {
	case x1 != x2:
		if (x2-x1+t.W)%t.W != 1 {
			dir = 1
		}
	case y1 != y2:
		if (y2-y1+t.H)%t.H == 1 {
			dir = 2
		} else {
			dir = 3
		}
	default:
		panic(fmt.Sprintf("topology: %v is not a neighbour link", l))
	}
	return l.From*4 + dir
}

// step returns the next hop from coordinate a toward coordinate b along
// one dimension of size n, moving in the shorter direction around the
// ring (ties go in the increasing direction).
func step(a, b, n int) int {
	if a == b {
		return a
	}
	fwd := ((b - a) + n) % n
	bwd := ((a - b) + n) % n
	if fwd <= bwd {
		return (a + 1) % n
	}
	return (a - 1 + n) % n
}

// Route returns the sequence of links from src to dst using
// dimension-order (X then Y) routing with shortest wrap-around.
// An empty slice is returned when src == dst.
func (t Torus) Route(src, dst int) []Link {
	if src == dst {
		return nil
	}
	var links []Link
	x, y := t.Coord(src)
	dx, dy := t.Coord(dst)
	cur := src
	for x != dx {
		x = step(x, dx, t.W)
		next := t.ID(x, y)
		links = append(links, Link{cur, next})
		cur = next
	}
	for y != dy {
		y = step(y, dy, t.H)
		next := t.ID(x, y)
		links = append(links, Link{cur, next})
		cur = next
	}
	return links
}

// Distance returns the hop count from src to dst.
func (t Torus) Distance(src, dst int) int {
	x, y := t.Coord(src)
	dx, dy := t.Coord(dst)
	return ringDist(x, dx, t.W) + ringDist(y, dy, t.H)
}

func ringDist(a, b, n int) int {
	d := ((b - a) + n) % n
	if n-d < d {
		d = n - d
	}
	return d
}

// MulticastTree computes a fan-out multicast tree from src covering every
// destination in dsts. The tree is the union of dimension-order routes,
// deduplicated so each link appears once: this models the paper's
// bandwidth-efficient fan-out multicast where a multi-destination message
// crosses each tree link a single time.
//
// The returned map gives, for each node in the tree, the links leaving it
// (its children edges). Traversal from src reaches every destination.
func (t Torus) MulticastTree(src int, dsts []int) map[int][]Link {
	tree := make(map[int][]Link)
	seen := make(map[Link]bool)
	for _, d := range dsts {
		if d == src {
			continue
		}
		for _, l := range t.Route(src, d) {
			if seen[l] {
				continue
			}
			seen[l] = true
			tree[l.From] = append(tree[l.From], l)
		}
	}
	return tree
}

// TreeLinkCount returns the number of distinct links in the multicast
// tree from src to dsts (used in traffic accounting tests).
func (t Torus) TreeLinkCount(src int, dsts []int) int {
	n := 0
	for _, ls := range t.MulticastTree(src, dsts) {
		n += len(ls)
	}
	return n
}
