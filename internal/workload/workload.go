// Package workload generates the memory-reference streams driving the
// simulations. The paper evaluates two SPLASH-2 applications (barnes,
// ocean), three Wisconsin Commercial Workload Suite applications (oltp,
// apache, jbb) — each run as four concurrent 16-core copies on a 64-core
// system — plus a microbenchmark where every core writes a random entry
// of a 16K-location table 30% of the time and reads one 70% of the time.
//
// Full traces of those applications are not available, so each workload
// is a parameterised synthetic generator reproducing its sharing-pattern
// mix: private references, read-shared data, migratory (lock-protected)
// blocks, producer–consumer neighbour communication, and streaming
// references that produce capacity misses. The protocols under study
// differentiate only on this sharing behaviour, which is what the
// parameters control (see DESIGN.md §2 for the substitution argument).
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"patch/internal/msg"
)

// ErrBadParams reports generator construction parameters that cannot
// produce a well-formed reference stream (a nonzero category fraction
// with an empty working set, a fraction outside [0, 1], ...). Every
// construction failure Named returns for bad parameters wraps this
// sentinel, so callers can classify with errors.Is instead of
// recovering a rand.Intn(0) panic mid-sweep.
var ErrBadParams = errors.New("invalid generator parameters")

// Op is one memory reference by a core: the block address, the kind, and
// the number of non-memory "think" cycles preceding it.
type Op struct {
	Addr  msg.Addr
	Write bool
	Think int
}

// Generator produces each core's reference stream deterministically for
// a given seed.
type Generator interface {
	// Next returns the core's next operation.
	Next(core int) Op
}

// Region base addresses. Keeping regions disjoint makes traces easy to
// audit; block addresses are always aligned to BlockSize.
const (
	BlockSize     = msg.BlockBytes
	privateBase   = 1 << 36
	sharedBase    = 2 << 36
	migratoryBase = 3 << 36
	prodConsBase  = 4 << 36
	streamBase    = 5 << 36
	regionStride  = 0x0100_0000 // 16 MB per core/domain within a region
)

// mix parameterises a synthetic application workload.
type mix struct {
	// DomainCores groups cores into consolidation domains (the paper runs
	// four 16-core copies); sharing never crosses a domain.
	DomainCores int

	// Fractions of references by category (must sum to <= 1; the
	// remainder is private). Each category produces the sharing pattern
	// its name suggests.
	SharedReadFrac float64 // read-mostly shared data
	MigratoryFrac  float64 // read-modify-write migratory blocks
	ProdConsFrac   float64 // neighbour producer-consumer pairs
	StreamFrac     float64 // streaming walk causing capacity misses

	// PrivateWriteFrac is the store ratio within private references;
	// SharedWriteFrac the (small) store ratio to read-mostly data.
	PrivateWriteFrac float64
	SharedWriteFrac  float64

	// Working-set sizes in blocks.
	PrivateBlocks   int
	SharedBlocks    int
	MigratoryBlocks int
	ProdConsBlocks  int

	// ThinkMean is the mean think time between references, in cycles.
	ThinkMean int
}

// mixGen drives a mix.
type mixGen struct {
	p     mix
	cores int
	rngs  []*rand.Rand
	// pendingWrite holds the write half of a migratory read-modify-write
	// pair per core.
	pendingWrite []msg.Addr
	streamPos    []int
}

// validate checks the mix can generate without panicking: every
// reachable reference category must have a non-empty working set, and
// every fraction must be a probability.
func (m mix) validate() error {
	fracs := []struct {
		name string
		v    float64
	}{
		{"SharedReadFrac", m.SharedReadFrac},
		{"MigratoryFrac", m.MigratoryFrac},
		{"ProdConsFrac", m.ProdConsFrac},
		{"StreamFrac", m.StreamFrac},
		{"PrivateWriteFrac", m.PrivateWriteFrac},
		{"SharedWriteFrac", m.SharedWriteFrac},
	}
	for _, f := range fracs {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%w: %s = %g outside [0, 1]", ErrBadParams, f.name, f.v)
		}
	}
	sum := m.SharedReadFrac + m.MigratoryFrac + m.ProdConsFrac + m.StreamFrac
	if sum > 1 {
		return fmt.Errorf("%w: category fractions sum to %g > 1", ErrBadParams, sum)
	}
	// A nonzero fraction draws rand.Intn(blocks) on its first matching
	// reference; an empty region would panic there.
	regions := []struct {
		name   string
		frac   float64
		blocks int
	}{
		{"SharedBlocks", m.SharedReadFrac, m.SharedBlocks},
		{"MigratoryBlocks", m.MigratoryFrac, m.MigratoryBlocks},
		{"ProdConsBlocks", m.ProdConsFrac, m.ProdConsBlocks},
	}
	for _, r := range regions {
		if r.blocks < 0 {
			return fmt.Errorf("%w: %s = %d is negative", ErrBadParams, r.name, r.blocks)
		}
		if r.frac > 0 && r.blocks == 0 {
			return fmt.Errorf("%w: fraction %g with %s = 0", ErrBadParams, r.frac, r.name)
		}
	}
	if m.PrivateBlocks < 0 {
		return fmt.Errorf("%w: PrivateBlocks = %d is negative", ErrBadParams, m.PrivateBlocks)
	}
	// Float64 < 1, so the private remainder is reachable whenever the
	// category fractions leave any probability mass.
	if sum < 1 && m.PrivateBlocks == 0 {
		return fmt.Errorf("%w: private fraction %g with PrivateBlocks = 0", ErrBadParams, 1-sum)
	}
	if m.ThinkMean < 0 {
		return fmt.Errorf("%w: ThinkMean = %d is negative", ErrBadParams, m.ThinkMean)
	}
	return nil
}

// describe renders the mix's one-line parameter summary.
func (m mix) describe() string {
	return fmt.Sprintf("mix: shared %.0f%%, migratory %.0f%%, prod-cons %.0f%%, stream %.0f%% (blocks %d/%d/%d/%d, think %d)",
		100*m.SharedReadFrac, 100*m.MigratoryFrac, 100*m.ProdConsFrac, 100*m.StreamFrac,
		m.SharedBlocks, m.MigratoryBlocks, m.ProdConsBlocks, m.PrivateBlocks, m.ThinkMean)
}

// newMix builds a generator for n cores with the given seed. Invalid
// parameters — a nonzero category fraction over an empty region, a
// fraction outside [0, 1] — return an error wrapping ErrBadParams
// rather than panicking on the first matching reference.
func newMix(m mix, n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	g := &mixGen{p: m, cores: n}
	g.rngs = make([]*rand.Rand, n)
	g.pendingWrite = make([]msg.Addr, n)
	g.streamPos = make([]int, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i)*104729 + 1))
	}
	if m.DomainCores <= 0 {
		g.p.DomainCores = n
	}
	return g, nil
}

func (g *mixGen) think(r *rand.Rand) int {
	if g.p.ThinkMean <= 0 {
		return 0
	}
	// Geometric-ish: uniform in [1, 2*mean).
	return 1 + r.Intn(2*g.p.ThinkMean)
}

func blockAddr(base uint64, idx int) msg.Addr {
	return msg.Addr(base + uint64(idx)*BlockSize)
}

func (g *mixGen) Next(core int) Op {
	r := g.rngs[core]
	m := &g.p
	domain := core / m.DomainCores
	domBase := func(base uint64) uint64 { return base + uint64(domain)*regionStride }

	// Complete a migratory read-modify-write pair.
	if g.pendingWrite[core] != 0 {
		a := g.pendingWrite[core]
		g.pendingWrite[core] = 0
		return Op{Addr: a, Write: true, Think: 1 + r.Intn(4)}
	}

	p := r.Float64()
	switch {
	case p < m.SharedReadFrac:
		a := blockAddr(domBase(sharedBase), r.Intn(m.SharedBlocks))
		return Op{Addr: a, Write: r.Float64() < m.SharedWriteFrac, Think: g.think(r)}
	case p < m.SharedReadFrac+m.MigratoryFrac:
		a := blockAddr(domBase(migratoryBase), r.Intn(m.MigratoryBlocks))
		g.pendingWrite[core] = a // read now, write next
		return Op{Addr: a, Write: false, Think: g.think(r)}
	case p < m.SharedReadFrac+m.MigratoryFrac+m.ProdConsFrac:
		// Even ops write our outbox, odd ops read the left neighbour's.
		inDomain := core % m.DomainCores
		slot := r.Intn(m.ProdConsBlocks)
		if r.Intn(2) == 0 {
			a := blockAddr(domBase(prodConsBase)+uint64(inDomain)*0x10000, slot)
			return Op{Addr: a, Write: true, Think: g.think(r)}
		}
		left := (inDomain + m.DomainCores - 1) % m.DomainCores
		a := blockAddr(domBase(prodConsBase)+uint64(left)*0x10000, slot)
		return Op{Addr: a, Write: false, Think: g.think(r)}
	case p < m.SharedReadFrac+m.MigratoryFrac+m.ProdConsFrac+m.StreamFrac:
		g.streamPos[core]++
		a := blockAddr(streamBase+uint64(core)*regionStride, g.streamPos[core]%(1<<18))
		return Op{Addr: a, Write: r.Float64() < m.PrivateWriteFrac, Think: g.think(r)}
	default:
		a := blockAddr(privateBase+uint64(core)*regionStride, r.Intn(m.PrivateBlocks))
		return Op{Addr: a, Write: r.Float64() < m.PrivateWriteFrac, Think: g.think(r)}
	}
}

// micro is the scalability microbenchmark from §8.1: uniform random
// references over a 16K-entry shared table, 30% writes.
type micro struct {
	rngs   []*rand.Rand
	blocks int
	think  int
}

// newMicro builds the microbenchmark for n cores.
func newMicro(n int, seed int64) (Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: core count %d", ErrBadParams, n)
	}
	g := &micro{blocks: 16 * 1024, think: 4}
	g.rngs = make([]*rand.Rand, n)
	for i := range g.rngs {
		g.rngs[i] = rand.New(rand.NewSource(seed*31337 + int64(i)*7 + 1))
	}
	return g, nil
}

// Next implements Generator.
func (g *micro) Next(core int) Op {
	r := g.rngs[core]
	return Op{
		Addr:  blockAddr(sharedBase, r.Intn(g.blocks)),
		Write: r.Float64() < 0.30,
		Think: 1 + r.Intn(2*g.think),
	}
}
