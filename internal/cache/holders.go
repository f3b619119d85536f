package cache

import (
	"math/bits"

	"patch/internal/addrmap"
	"patch/internal/msg"
)

// Holders is a holder index: for each block, the set of caches, by
// node id, whose tag array holds it. The caches of one system join one
// index (Cache.Join) and keep it current wherever a tag changes: a
// fill sets the block's bit, and the victim the fill evicts and Drop
// clear theirs. A joined cache then answers Lookup for a block it does
// not hold from the index alone, so the recipients of a broadcast read
// one shared entry instead of each probing its own tag array.
//
// The index is an accelerator of the simulator, not a modeled
// structure: it changes no modeled latency, counter or message. A
// missing bit would make a holder miss its own line, so every tag
// change updates it; a stale bit only costs the probe it would have
// saved. A block's row, once made, stays until Clear, so clearing a
// bit never moves or frees anything.
type Holders struct {
	words int                // bitset words per block: ceil(caches/64)
	rows  addrmap.Map[int32] // block address -> row in bits
	bits  []uint64           // words per row, row after row
}

// NewHolders builds an empty index for the caches of node ids 0..n-1.
func NewHolders(n int) *Holders {
	return &Holders{words: (n + 63) / 64}
}

// holds reports whether the cache of node id holds the block at a.
//
//patch:steadystate
func (h *Holders) holds(a msg.Addr, id int) bool {
	r, ok := h.rows.Get(a)
	return ok && h.bits[int(r)*h.words+id>>6]&(1<<(id&63)) != 0
}

// add sets id's bit for the block at a, making the block's row on its
// first fill.
func (h *Holders) add(a msg.Addr, id int) {
	n := h.rows.Len()
	r := h.rows.Ptr(a)
	if h.rows.Len() != n {
		*r = int32(n)
		h.bits = append(h.bits, make([]uint64, h.words)...)
	}
	h.bits[int(*r)*h.words+id>>6] |= 1 << (id & 63)
}

// remove clears id's bit for the block at a.
func (h *Holders) remove(a msg.Addr, id int) {
	if r, ok := h.rows.Get(a); ok {
		h.bits[int(r)*h.words+id>>6] &^= 1 << (id & 63)
	}
}

// Clear empties the index in one step, keeping its capacity. Whoever
// resets every cache that joined the index clears it once: a cache's
// own Reset leaves its bits set, which costs probes until then.
func (h *Holders) Clear() {
	h.rows.Clear()
	h.bits = h.bits[:0]
}

// ForEach visits every bit set: a block and the node id of a cache the
// index reports holding it, block by block in the order the index
// first saw the blocks, and by ascending id within a block.
func (h *Holders) ForEach(fn func(a msg.Addr, id int)) {
	h.rows.ForEach(func(a msg.Addr, r *int32) {
		row := h.bits[int(*r)*h.words : int(*r+1)*h.words]
		for w, set := range row {
			for ; set != 0; set &= set - 1 {
				fn(a, w*64+bits.TrailingZeros64(set))
			}
		}
	})
}
