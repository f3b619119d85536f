package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/token"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B blocks.
	return New(Config{SizeBytes: 512, Ways: 2, BlockSize: 64})
}

func addr(set, tag int) msg.Addr {
	return msg.Addr(uint64(tag)*4*64 + uint64(set)*64)
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := small()
	if c.Lookup(0x1000) != nil {
		t.Fatal("lookup hit on empty cache")
	}
	if c.Access(0x1000) != nil {
		t.Fatal("access hit on empty cache")
	}
	if c.Misses != 1 {
		t.Fatalf("misses = %d", c.Misses)
	}
}

func TestAllocateAndHit(t *testing.T) {
	c := small()
	l, ev := c.Allocate(0x40)
	if ev.Present {
		t.Fatal("eviction from empty cache")
	}
	if l.Addr != 0x40 || !l.Present {
		t.Fatalf("allocated line: %+v", l)
	}
	if got := c.Access(0x40); got != l {
		t.Fatal("access after allocate missed")
	}
	if c.Hits != 1 {
		t.Fatalf("hits = %d", c.Hits)
	}
}

func TestAllocateIdempotent(t *testing.T) {
	c := small()
	l1, _ := c.Allocate(0x40)
	l1.MOESI = token.M
	l2, ev := c.Allocate(0x40)
	if l2 != l1 || ev.Present {
		t.Fatal("re-allocate must return the existing line without eviction")
	}
	if l2.MOESI != token.M {
		t.Fatal("re-allocate clobbered state")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	a0, a1, a2 := addr(0, 0), addr(0, 1), addr(0, 2)
	c.Allocate(a0)
	c.Allocate(a1)
	c.Access(a0) // a1 now LRU
	_, ev := c.Allocate(a2)
	if !ev.Present || ev.Addr != a1 {
		t.Fatalf("evicted %+v, want %#x", ev, uint64(a1))
	}
	if c.Lookup(a0) == nil || c.Lookup(a2) == nil || c.Lookup(a1) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestEvictionPreservesVictimState(t *testing.T) {
	c := small()
	l, _ := c.Allocate(addr(1, 0))
	l.MOESI = token.O
	l.Tok = token.State{Count: 3, Owner: true, Dirty: true, Valid: true}
	c.Allocate(addr(1, 1))
	_, ev := c.Allocate(addr(1, 2))
	if !ev.Present || ev.MOESI != token.O || ev.Tok.Count != 3 || !ev.Tok.Dirty {
		t.Fatalf("victim state lost: %+v", ev)
	}
}

func TestAllocateAvoid(t *testing.T) {
	c := small()
	a0, a1, a2 := addr(2, 0), addr(2, 1), addr(2, 2)
	c.Allocate(a0)
	c.Allocate(a1)
	// a0 is LRU but protected; a1 must be chosen instead.
	_, ev := c.AllocateAvoid(a2, func(a msg.Addr) bool { return a == a0 })
	if !ev.Present || ev.Addr != a1 {
		t.Fatalf("AllocateAvoid evicted %#x, want %#x", uint64(ev.Addr), uint64(a1))
	}
}

func TestAllocateAvoidFallsBack(t *testing.T) {
	c := small()
	a0, a1, a2 := addr(3, 0), addr(3, 1), addr(3, 2)
	c.Allocate(a0)
	c.Allocate(a1)
	// Everything protected: the LRU line is evicted anyway.
	_, ev := c.AllocateAvoid(a2, func(msg.Addr) bool { return true })
	if !ev.Present || ev.Addr != a0 {
		t.Fatalf("fallback evicted %+v, want %#x", ev, uint64(a0))
	}
}

func TestDrop(t *testing.T) {
	c := small()
	l, _ := c.Allocate(0x40)
	c.Drop(l)
	if c.Lookup(0x40) != nil {
		t.Fatal("line survived Drop")
	}
}

func TestTokenHoldings(t *testing.T) {
	c := small()
	l, _ := c.Allocate(0x40)
	l.Tok = token.State{Count: 4, Owner: true, Valid: true}
	l2, _ := c.Allocate(0x80)
	l2.Tok = token.State{Count: 0}
	got := map[msg.Addr]int{}
	c.TokenHoldings(func(a msg.Addr, count int, owner bool) {
		got[a] = count
		if !owner {
			t.Error("owner flag lost")
		}
	})
	if len(got) != 1 || got[0x40] != 4 {
		t.Fatalf("holdings = %v", got)
	}
}

func TestResetCounters(t *testing.T) {
	c := small()
	c.Access(0x40)
	c.Allocate(0x40)
	c.Access(0x40)
	c.ResetCounters()
	if c.Hits != 0 || c.Misses != 0 || c.Evictions != 0 {
		t.Fatal("counters survived reset")
	}
	if c.Lookup(0x40) == nil {
		t.Fatal("reset dropped contents")
	}
}

// TestReset checks Reset empties contents, counters and the LRU clock,
// so a reused cache is indistinguishable from a fresh one.
func TestReset(t *testing.T) {
	c := small()
	for i := 0; i < 12; i++ {
		c.Allocate(addr(i%4, i))
		c.Access(addr(i%4, i))
	}
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 || c.Evictions != 0 {
		t.Fatal("counters survived Reset")
	}
	present := 0
	c.ForEach(func(*Line) { present++ })
	if present != 0 {
		t.Fatalf("%d lines survived Reset", present)
	}
	// LRU behaviour matches a fresh cache: fill one set, touch the
	// first way, and the second way must be the one evicted.
	f := small()
	for _, cc := range []*Cache{c, f} {
		cc.Allocate(addr(0, 1))
		cc.Allocate(addr(0, 2))
		cc.Access(addr(0, 1))
		if _, ev := cc.Allocate(addr(0, 3)); !ev.Present || ev.Addr != addr(0, 2) {
			t.Fatalf("victim after reset diverges from fresh: %+v", ev)
		}
	}
}

func TestSetsPowerOfTwoSizing(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 4, BlockSize: 64})
	if c.Sets() != (1<<20)/(4*64) {
		t.Fatalf("sets = %d", c.Sets())
	}
}

// TestPropertyCacheNeverExceedsCapacity fills the cache with random
// addresses and verifies the number of present lines never exceeds
// capacity and every present line is findable.
func TestPropertyCacheNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 2048, Ways: 4, BlockSize: 64})
		capacity := 2048 / 64
		for i := 0; i < 500; i++ {
			c.Allocate(msg.Addr(r.Intn(256) * 64))
			count := 0
			ok := true
			c.ForEach(func(l *Line) {
				count++
				if c.Lookup(l.Addr) != l {
					ok = false
				}
			})
			if count > capacity || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLinePointerStable holds a *Line across enough installs to
// allocate several more chunks of line state: it must still be the line
// Lookup returns, with its state intact.
func TestLinePointerStable(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 20, Ways: 4, BlockSize: 64}
	c := New(cfg)
	held, _ := c.Allocate(0)
	held.MOESI = token.O
	held.Tok = token.State{Count: 5, Owner: true, Dirty: true, Valid: true}
	held.Version = 7
	want := *held
	// Blocks 1..5*chunkLines fall in sets other than block 0's, so none
	// of them displaces the held line.
	for b := 1; b <= 5*chunkLines; b++ {
		c.Allocate(msg.Addr(b * cfg.BlockSize))
	}
	if len(c.chunks) < 5 {
		t.Fatalf("%d chunks allocated, want at least 5", len(c.chunks))
	}
	if got := c.Lookup(0); got != held || *got != want {
		t.Fatalf("held line moved or changed: Lookup = %p %+v, held %p %+v", got, got, held, want)
	}
}

// refCache is the cache's previous layout, kept as the reference model:
// every way's whole Line stored in place, set-major, and scanned line by
// line.
type refCache struct {
	cfg   Config
	sets  [][]Line
	nsets int
	clock uint64

	Hits, Misses, Evictions uint64
}

func newRef(cfg Config) *refCache {
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockSize)
	if nsets < 1 {
		nsets = 1
	}
	sets := make([][]Line, nsets)
	backing := make([]Line, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, sets: sets, nsets: nsets}
}

func (c *refCache) setIndex(addr msg.Addr) int {
	return int((uint64(addr) / uint64(c.cfg.BlockSize)) % uint64(c.nsets))
}

func (c *refCache) lookup(addr msg.Addr) *Line {
	set := c.sets[c.setIndex(addr)]
	for i := range set {
		if set[i].Present && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) touch(l *Line) {
	c.clock++
	l.lastUse = c.clock
}

func (c *refCache) access(addr msg.Addr) *Line {
	l := c.lookup(addr)
	if l != nil {
		c.Hits++
		c.touch(l)
	} else {
		c.Misses++
	}
	return l
}

func (c *refCache) victim(addr msg.Addr) *Line {
	if c.lookup(addr) != nil {
		return nil
	}
	set := c.sets[c.setIndex(addr)]
	var victim *Line
	for i := range set {
		if !set[i].Present {
			return &set[i]
		}
		if victim == nil || set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	return victim
}

func (c *refCache) allocate(addr msg.Addr) (l *Line, evicted Line) {
	if existing := c.lookup(addr); existing != nil {
		return existing, Line{}
	}
	v := c.victim(addr)
	if v.Present {
		evicted = *v
		c.Evictions++
	}
	*v = Line{Addr: addr, Present: true}
	c.touch(v)
	return v, evicted
}

func (c *refCache) allocateAvoid(addr msg.Addr, avoid func(msg.Addr) bool) (l *Line, evicted Line) {
	if existing := c.lookup(addr); existing != nil {
		return existing, Line{}
	}
	set := c.sets[c.setIndex(addr)]
	var victim, fallback *Line
	for i := range set {
		ln := &set[i]
		if !ln.Present {
			victim = ln
			break
		}
		if fallback == nil || ln.lastUse < fallback.lastUse {
			fallback = ln
		}
		if avoid != nil && avoid(ln.Addr) {
			continue
		}
		if victim == nil || ln.lastUse < victim.lastUse {
			victim = ln
		}
	}
	if victim == nil {
		victim = fallback
	}
	if victim.Present {
		evicted = *victim
		c.Evictions++
	}
	*victim = Line{Addr: addr, Present: true}
	c.touch(victim)
	return victim, evicted
}

func (c *refCache) drop(l *Line) { *l = Line{} }

func (c *refCache) reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	c.Hits, c.Misses, c.Evictions = 0, 0, 0
}

func (c *refCache) tokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			if l.Present && !l.Tok.Zero() {
				fn(l.Addr, l.Tok.Count, l.Tok.Owner)
			}
		}
	}
}

func (c *refCache) forEach(fn func(l *Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Present {
				fn(&set[i])
			}
		}
	}
}

// refGeometries are the geometries the reference comparison runs at:
// 4 sets x 2 ways and 16 sets x 4 ways.
var refGeometries = []Config{
	{SizeBytes: 4 * 2 * 64, Ways: 2, BlockSize: 64},
	{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64},
}

// Op kinds of runOps' byte stream (the kind byte modulo opKinds).
const (
	opLookup = iota
	opAccess
	opAllocate
	opAllocateAvoid
	opDrop
	opTouch
	opResetCounters
	opReset
	opKinds
)

type holding struct {
	addr  msg.Addr
	count int
	owner bool
}

// runOps drives a Cache and the reference model with the same op stream
// and fails at the first divergence: in the line an op returns, the
// evicted copy, the counters, or the ForEach and TokenHoldings visit
// sequences. data[0] picks the geometry; each op is then three bytes:
// its kind, a block number, and a byte that both sets the state written
// into installed and hit lines and, for AllocateAvoid, names the
// protected blocks (block b is protected if bit b%8 is set).
func runOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := refGeometries[int(data[0])%len(refGeometries)]
	data = data[1:]
	c, ref := New(cfg), newRef(cfg)
	var gotLines, wantLines []Line
	var gotHold, wantHold []holding
	bs := uint64(cfg.BlockSize)
	// Four blocks per way keep every set contended.
	nblocks := 4 * cfg.SizeBytes / cfg.BlockSize
	for i := 0; len(data) >= 3; i++ {
		kind, arg := data[0]%opKinds, data[2]
		a := msg.Addr(uint64(int(data[1])%nblocks) * bs)
		data = data[3:]
		avoid := func(x msg.Addr) bool { return arg>>(uint64(x)/bs%8)&1 == 1 }

		var got, want *Line
		var gotEv, wantEv Line
		switch kind {
		case opLookup:
			got, want = c.Lookup(a), ref.lookup(a)
		case opAccess:
			got, want = c.Access(a), ref.access(a)
		case opAllocate:
			got, gotEv = c.Allocate(a)
			want, wantEv = ref.allocate(a)
		case opAllocateAvoid:
			got, gotEv = c.AllocateAvoid(a, avoid)
			want, wantEv = ref.allocateAvoid(a, avoid)
		case opDrop:
			got, want = c.Lookup(a), ref.lookup(a)
			if got != nil && want != nil {
				c.Drop(got)
				ref.drop(want)
			}
		case opTouch:
			got, want = c.Lookup(a), ref.lookup(a)
			if got != nil && want != nil {
				c.Touch(got)
				ref.touch(want)
			}
		case opResetCounters:
			c.ResetCounters()
			ref.Hits, ref.Misses, ref.Evictions = 0, 0, 0
		case opReset:
			c.Reset()
			ref.reset()
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("op %d (kind %d, %#x): returned %v, reference %v", i, kind, uint64(a), got, want)
		}
		if got != nil && *got != *want {
			t.Fatalf("op %d (kind %d, %#x): line %+v, reference %+v", i, kind, uint64(a), *got, *want)
		}
		if gotEv != wantEv {
			t.Fatalf("op %d (kind %d, %#x): evicted %+v, reference %+v", i, kind, uint64(a), gotEv, wantEv)
		}
		if got != nil && kind != opDrop {
			// Give the line state both models must carry along; Count
			// 0 without the owner token leaves it out of TokenHoldings.
			for _, l := range []*Line{got, want} {
				l.MOESI = token.MOESI(arg % 5)
				l.Tok = token.State{Count: int(arg % 4), Owner: arg&4 != 0, Dirty: arg&8 != 0, Valid: arg&16 != 0}
				l.Written = arg&32 != 0
				l.Untenured = arg&64 != 0
				l.UntenuredAt = event.Time(i)
				l.Version++
			}
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evictions {
			t.Fatalf("op %d (kind %d): counters %d/%d/%d, reference %d/%d/%d", i, kind,
				c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evictions)
		}
		gotLines, wantLines = gotLines[:0], wantLines[:0]
		c.ForEach(func(l *Line) { gotLines = append(gotLines, *l) })
		ref.forEach(func(l *Line) { wantLines = append(wantLines, *l) })
		if !slices.Equal(gotLines, wantLines) {
			t.Fatalf("op %d (kind %d): ForEach visited %+v, reference %+v", i, kind, gotLines, wantLines)
		}
		gotHold, wantHold = gotHold[:0], wantHold[:0]
		c.TokenHoldings(func(a msg.Addr, n int, o bool) { gotHold = append(gotHold, holding{a, n, o}) })
		ref.tokenHoldings(func(a msg.Addr, n int, o bool) { wantHold = append(wantHold, holding{a, n, o}) })
		if !slices.Equal(gotHold, wantHold) {
			t.Fatalf("op %d (kind %d): TokenHoldings visited %+v, reference %+v", i, kind, gotHold, wantHold)
		}
	}
}

// randomOps returns a seeded op stream for runOps at geometry geom:
// installs dominate, so sets fill and evict, and a Reset is rare.
func randomOps(r *rand.Rand, geom, n int) []byte {
	kinds := []byte{opLookup, opAccess, opAccess, opAllocate, opAllocate,
		opAllocateAvoid, opAllocateAvoid, opAllocateAvoid, opDrop, opTouch, opResetCounters}
	data := make([]byte, 1, 1+3*n)
	data[0] = byte(geom)
	for i := 0; i < n; i++ {
		kind := kinds[r.Intn(len(kinds))]
		if r.Intn(150) == 0 {
			kind = opReset
		}
		data = append(data, kind, byte(r.Intn(256)), byte(r.Intn(256)))
	}
	return data
}

// TestMatchesReference runs seeded random op streams through the cache
// and the reference model at both geometries.
func TestMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for round := 0; round < 40; round++ {
		runOps(t, randomOps(r, round, 1+r.Intn(800)))
	}
}

// FuzzCacheOps runs the reference comparison on fuzzer-chosen op
// streams.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, opAllocate, 1, 0, opAllocate, 5, 0, opDrop, 1, 0, opAllocate, 9, 0, opReset, 0, 0, opLookup, 5, 0})
	r := rand.New(rand.NewSource(16))
	for geom := range refGeometries {
		f.Add(randomOps(r, geom, 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
