// Package cache implements the set-associative cache arrays used by every
// protocol: true LRU replacement, per-line MOESI state for the directory
// protocol and per-line token state for PATCH/TokenB (the paper adds
// roughly 2% state overhead for token counts; we carry both views).
package cache

import (
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/token"
)

// Line is one cache block's worth of state.
type Line struct {
	Addr    msg.Addr
	Present bool

	// MOESI is the coherence state as the directory protocol sees it; for
	// token protocols it is derived from Tok but kept for tracing.
	MOESI token.MOESI

	// Tok is the token-counting state (PATCH, TokenB).
	Tok token.State

	// Written records a local store since the block was filled, which is
	// what the migratory detector's conversion check needs (a dirty bit
	// alone would be inherited with migratory data).
	Written bool

	// Version is the block's write serial number: incremented by every
	// store performed on this copy, carried along with data transfers,
	// and checked against the global store count at end of run.
	Version uint64

	// Untenured marks token holdings that have not been tenured (PATCH
	// token tenure rule #2); UntenuredAt records when the probationary
	// period began.
	Untenured   bool
	UntenuredAt event.Time

	lastUse uint64
}

// Config sizes a cache. Addresses given to the cache must be aligned
// to BlockSize.
type Config struct {
	SizeBytes int
	Ways      int
	BlockSize int
}

// chunkLines is the number of lines allocated together. A chunk never
// moves once allocated, so a *Line stays valid for the cache's life.
const chunkLines = 64

// Cache is a set-associative array. It stores coherence state only; data
// values are not simulated (timing-directed simulation, as in GEMS).
//
// Lookups read only the dense tag array, so probing for an absent block
// (the common case at the recipients of a broadcast) touches one set's
// tags and no line state. A way receives its Line, from fixed-size
// chunks, the first time it holds a block and keeps it from then on.
type Cache struct {
	cfg   Config
	nsets int

	// tags holds one entry per way, set-major: the block number + 1 of
	// the block the way holds, or 0 if the way is empty.
	tags []uint64
	// slots holds one entry per way: 0 until the way's first fill, then
	// 1 + the index of the way's line in chunks.
	slots  []int32
	chunks []*[chunkLines]Line
	nlines int32 // lines handed out from chunks
	clock  uint64

	// Stats.
	Hits, Misses, Evictions uint64
}

// New builds a cache. SizeBytes must be a multiple of Ways*BlockSize.
func New(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockSize)
	if nsets < 1 {
		nsets = 1
	}
	return &Cache{
		cfg:   cfg,
		nsets: nsets,
		tags:  make([]uint64, nsets*cfg.Ways),
		slots: make([]int32, nsets*cfg.Ways),
	}
}

// Sets returns the number of sets (diagnostics).
func (c *Cache) Sets() int { return c.nsets }

// probe scans addr's set in the tag array. It returns the index of the
// set's first way, the tag addr carries, and the way holding addr (-1
// if none).
//
//patch:steadystate
func (c *Cache) probe(addr msg.Addr) (base int, tag uint64, way int) {
	block := uint64(addr) / uint64(c.cfg.BlockSize)
	base = int(block%uint64(c.nsets)) * c.cfg.Ways
	tag = block + 1
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			return base, tag, base + w
		}
	}
	return base, tag, -1
}

// line returns the line of a way that has held a block.
func (c *Cache) line(way int) *Line {
	s := uint32(c.slots[way] - 1)
	return &c.chunks[s/chunkLines][s%chunkLines]
}

// Lookup returns the line holding addr, or nil. It does not update LRU.
//
//patch:steadystate
func (c *Cache) Lookup(addr msg.Addr) *Line {
	if _, _, way := c.probe(addr); way >= 0 {
		return c.line(way)
	}
	return nil
}

// Touch marks the line most recently used.
func (c *Cache) Touch(l *Line) {
	c.clock++
	l.lastUse = c.clock
}

// Access looks up addr, recording a hit or miss and updating LRU on hit.
//
//patch:steadystate
func (c *Cache) Access(addr msg.Addr) *Line {
	_, _, way := c.probe(addr)
	if way < 0 {
		c.Misses++
		return nil
	}
	c.Hits++
	l := c.line(way)
	c.Touch(l)
	return l
}

// Allocate installs addr into the cache, evicting the LRU way if needed.
// It returns the new line and a copy of the evicted line (evicted.Present
// reports whether anything was displaced). The new line starts invalid
// (MOESI I, zero tokens); the caller fills in coherence state.
func (c *Cache) Allocate(addr msg.Addr) (l *Line, evicted Line) {
	return c.AllocateAvoid(addr, nil)
}

// AllocateAvoid is Allocate with a victim filter: lines for which avoid
// returns true (e.g. blocks with an outstanding MSHR) are not displaced.
// If every way is protected the least-recently-used protected line is
// evicted anyway (cannot happen with single-outstanding-miss cores, but
// the fallback keeps the cache total).
func (c *Cache) AllocateAvoid(addr msg.Addr, avoid func(msg.Addr) bool) (l *Line, evicted Line) {
	base, tag, way := c.probe(addr)
	if way >= 0 {
		return c.line(way), Line{}
	}
	way = c.victim(base, avoid)
	if c.tags[way] != 0 {
		evicted = *c.line(way)
		c.Evictions++
	} else if c.slots[way] == 0 {
		c.slots[way] = c.newLine()
	}
	c.tags[way] = tag
	l = c.line(way)
	*l = Line{Addr: addr, Present: true}
	c.Touch(l)
	return l, evicted
}

// victim picks the way to fill in the set whose first way is base: the
// first empty way, else the least recently used way avoid does not
// protect, else the least recently used way.
func (c *Cache) victim(base int, avoid func(msg.Addr) bool) int {
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == 0 {
			return base + w
		}
	}
	victim, fallback := -1, -1
	var victimUse, fallbackUse uint64
	for w := base; w < base+c.cfg.Ways; w++ {
		ln := c.line(w)
		if fallback < 0 || ln.lastUse < fallbackUse {
			fallback, fallbackUse = w, ln.lastUse
		}
		if avoid != nil && avoid(ln.Addr) {
			continue
		}
		if victim < 0 || ln.lastUse < victimUse {
			victim, victimUse = w, ln.lastUse
		}
	}
	if victim < 0 {
		return fallback
	}
	return victim
}

// newLine hands out the next line from the chunks, allocating a chunk
// when all are in use, and returns its slot.
func (c *Cache) newLine() int32 {
	if int(c.nlines) == len(c.chunks)*chunkLines {
		c.chunks = append(c.chunks, new([chunkLines]Line))
	}
	c.nlines++
	return c.nlines
}

// Drop removes the line without writeback bookkeeping (caller handles
// token/dirty obligations).
func (c *Cache) Drop(l *Line) {
	if l.Present {
		if _, _, way := c.probe(l.Addr); way >= 0 {
			c.tags[way] = 0
		}
	}
	*l = Line{}
}

// ResetCounters clears the hit/miss/eviction statistics (used when a
// measurement phase begins after warmup) without touching contents.
func (c *Cache) ResetCounters() { c.Hits, c.Misses, c.Evictions = 0, 0, 0 }

// Reset empties the cache and rewinds the LRU clock and statistics: a
// reset cache behaves exactly like a freshly constructed one of the
// same geometry. It clears the tags and slots only; the chunks stay as
// capacity for later fills, each of which overwrites its whole line.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.slots)
	c.nlines = 0
	c.clock = 0
	c.ResetCounters()
}

// TokenHoldings implements token.Holder.
func (c *Cache) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	for w, t := range c.tags {
		if t == 0 {
			continue
		}
		if l := c.line(w); !l.Tok.Zero() {
			fn(l.Addr, l.Tok.Count, l.Tok.Owner)
		}
	}
}

// ForEach visits every present line (diagnostics and checkers), set by
// set and way by way.
func (c *Cache) ForEach(fn func(l *Line)) {
	for w, t := range c.tags {
		if t != 0 {
			fn(c.line(w))
		}
	}
}
