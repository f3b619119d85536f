// Package directory implements the home node's directory: per-block
// entries with a blocking busy/active state (the GEMS-style race
// resolution the paper's DIRECTORY baseline uses), a FIFO of queued
// requests, and pluggable sharer-set encodings including the inexact
// coarse bit vectors evaluated in Figures 9 and 10.
package directory

import (
	"fmt"

	"patch/internal/addrmap"
	"patch/internal/msg"
	"patch/internal/token"
)

// HomeOwner is the sentinel owner meaning "memory at the home owns the
// block".
const HomeOwner msg.NodeID = -1

// Encoding selects how an entry stores its sharers.
type Encoding struct {
	// Cores is the total number of cores.
	Cores int
	// Coarseness K maps one presence bit to K cores (1 = exact full map,
	// Cores = a single bit for everyone). The owner is always recorded
	// exactly (the paper's inexact experiment records the owner with
	// log n bits so reads stay exact).
	Coarseness int
}

// FullMap returns the exact encoding.
func FullMap(cores int) Encoding { return Encoding{Cores: cores, Coarseness: 1} }

// Validate checks the encoding parameters.
func (e Encoding) Validate() error {
	if e.Cores <= 0 {
		return fmt.Errorf("directory: cores must be positive, got %d", e.Cores)
	}
	if e.Coarseness < 1 || e.Coarseness > e.Cores {
		return fmt.Errorf("directory: coarseness %d out of range [1,%d]", e.Coarseness, e.Cores)
	}
	if e.Cores%e.Coarseness != 0 {
		return fmt.Errorf("directory: coarseness %d does not divide cores %d", e.Coarseness, e.Cores)
	}
	return nil
}

// SharerSet is a conservative over-approximation of the caches holding a
// block. With Coarseness > 1 membership queries may return false
// positives but never false negatives.
type SharerSet struct {
	enc  Encoding
	bits []uint64
}

// NewSharerSet returns an empty set under the encoding.
func NewSharerSet(enc Encoding) SharerSet {
	groups := enc.Cores / enc.Coarseness
	return SharerSet{enc: enc, bits: make([]uint64, (groups+63)/64)}
}

func (s *SharerSet) group(n msg.NodeID) int { return int(n) / s.enc.Coarseness }

// Add records node n as a sharer.
func (s *SharerSet) Add(n msg.NodeID) {
	g := s.group(n)
	s.bits[g/64] |= 1 << (g % 64)
}

// Clear empties the set.
func (s *SharerSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// Contains reports whether n may be a sharer (exact for Coarseness 1).
func (s *SharerSet) Contains(n msg.NodeID) bool {
	g := s.group(n)
	return s.bits[g/64]&(1<<(g%64)) != 0
}

// Remove forgets node n under the exact encoding. Under a coarse
// encoding n's bit also stands for the rest of its group, so Remove
// leaves it set: a departed sharer stays in the superset, which is the
// source of the inexactness the paper studies.
func (s *SharerSet) Remove(n msg.NodeID) {
	if s.enc.Coarseness != 1 {
		return
	}
	g := s.group(n)
	s.bits[g/64] &^= 1 << (g % 64)
}

// AppendMembers appends the conservative expansion of the set to dst —
// every core in every marked group, excluding exclude (pass -2 to
// exclude nobody; the requester is normally excluded from invalidation
// multicasts) — and returns the extended slice. Hot paths pass a
// per-node scratch buffer re-sliced to zero length and must consume the
// result before the next use of the same buffer.
func (s *SharerSet) AppendMembers(dst []msg.NodeID, exclude msg.NodeID) []msg.NodeID {
	groups := s.enc.Cores / s.enc.Coarseness
	for g := 0; g < groups; g++ {
		if s.bits[g/64]&(1<<(g%64)) == 0 {
			continue
		}
		base := g * s.enc.Coarseness
		for i := 0; i < s.enc.Coarseness; i++ {
			n := msg.NodeID(base + i)
			if n != exclude {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// reuse returns an empty set under enc, reusing s's bit array when it
// is large enough — the Reset path re-carves recycled slab entries
// without reallocating their sharer vectors.
func (s SharerSet) reuse(enc Encoding) SharerSet {
	groups := enc.Cores / enc.Coarseness
	n := (groups + 63) / 64
	if cap(s.bits) < n {
		return NewSharerSet(enc)
	}
	b := s.bits[:n]
	clear(b)
	return SharerSet{enc: enc, bits: b}
}

// Count returns the number of cores in the conservative expansion.
func (s *SharerSet) Count() int {
	n := 0
	groups := s.enc.Cores / s.enc.Coarseness
	for g := 0; g < groups; g++ {
		if s.bits[g/64]&(1<<(g%64)) != 0 {
			n += s.enc.Coarseness
		}
	}
	return n
}

// Entry is the per-block directory state.
type Entry struct {
	Addr    msg.Addr
	Owner   msg.NodeID // HomeOwner when memory owns the block
	Sharers SharerSet

	// Busy marks an active request being serviced; Active is its
	// requester. Queue holds the messages that arrived while busy (the
	// paper's DIRECTORY queues at the home), each a by-value copy
	// (msg.Message.Detached), so the interconnect recycles the delivered
	// message the moment the handler returns.
	Busy      bool
	Active    msg.NodeID
	ActiveSeq uint64
	Queue     []msg.Message

	// Tok is the home's token holding for the block (PATCH/TokenB). The
	// home of an untouched block holds all tokens with a clean owner.
	Tok token.State

	// Commit is the pending directory update to apply when the active
	// transaction's deactivation arrives (Deactivate); the zero value
	// means nothing is pending. A value descriptor rather than a
	// closure, so activation allocates nothing.
	Commit Commit

	// AwaitingWB is set when the home activates a request from the node
	// it still believes to be the owner: the owner's writeback must be in
	// flight, and the transaction stalls until it arrives, at which point
	// the protocol re-services the request recorded in ResumeReq and
	// ResumeType from memory.
	AwaitingWB bool
	ResumeReq  msg.NodeID
	ResumeType msg.Type

	// Migratory is the migratory-sharing detector state (NoteWrite,
	// NoteRead): set once the pattern "read then write by the same
	// core" has been observed. MigrAttempted records that the active
	// transaction tried a migratory conversion; if the owner reports it
	// had not actually written the block, Deactivate clears the mark.
	MigrAttempted bool
	Migratory     bool
	LastReader    msg.NodeID
	MigrArmed     bool

	// MemVersion is the write serial number of the memory copy, updated
	// by writebacks carrying data and served with home data responses.
	MemVersion uint64
}

// CommitKind selects the directory update a deactivation commits.
type CommitKind uint8

// The deactivation-time commits DIRECTORY and PATCH record at
// activation. Each installs the requester as owner.
const (
	// CommitRead keeps the previous owner (Prev) in the sharer
	// superset, unless the home owned the block or the requester was
	// the owner itself.
	CommitRead CommitKind = iota + 1
	// CommitMigratory is a read the home tried to convert into a
	// migratory transfer: if the deactivation reports the conversion
	// happened, no sharer remains; otherwise it commits as CommitRead.
	CommitMigratory
	// CommitWrite leaves no sharers.
	CommitWrite
)

// Commit is a pending deactivation-time directory update (see
// Entry.Commit). Req is the active requester; Prev the previous owner
// captured at activation, for reads.
type Commit struct {
	Kind CommitKind
	Req  msg.NodeID
	Prev msg.NodeID
}

// AbsorbTokens takes the tokens m brings back into the home's holding
// (PATCH, TokenB), with the data's version when m carries data. The
// owner token arrives clean: a dirty one travels with the data memory
// now holds (Rule #4).
//
//patch:steadystate
func (e *Entry) AbsorbTokens(m *msg.Message) {
	e.Tok.Add(m.Tokens, m.Owner, false, m.Owner)
	if m.HasData && m.Version > e.MemVersion {
		e.MemVersion = m.Version
	}
}

// NoteWrite runs the migratory detector on a write by r: a write by
// the most recent reader is the migratory hand-off pattern; a write by
// anyone else is write sharing and clears the mark.
func (e *Entry) NoteWrite(r msg.NodeID) {
	e.Migratory = e.MigrArmed && e.LastReader == r
	e.MigrArmed = false
}

// MigratoryRead reports whether a read by r may be converted into a
// migratory transfer: the block is marked migratory and another cache
// owns it.
func (e *Entry) MigratoryRead(r msg.NodeID) bool {
	return e.Migratory && e.Owner != HomeOwner && e.Owner != r
}

// NoteRead runs the migratory detector on a read by r. convert reports
// whether the home converts this read into a migratory transfer, which
// Deactivate settles; otherwise two consecutive reads by different
// cores clear the mark.
func (e *Entry) NoteRead(r msg.NodeID, convert bool) {
	if convert {
		e.MigrAttempted = true
	} else if e.MigrArmed && e.LastReader != r {
		e.Migratory = false
	}
	e.LastReader = r
	e.MigrArmed = true
}

// Deactivate applies the commit recorded at activation and settles an
// attempted migratory conversion. migrated is the deactivation's report
// that the conversion happened: the owner had written the block and
// handed over the exclusive copy. An attempt that did not happen means
// the block is not migrating, and the mark clears.
//
//patch:steadystate
func (e *Entry) Deactivate(migrated bool) {
	c := e.Commit
	e.Commit = Commit{}
	switch c.Kind {
	case CommitWrite:
		e.Owner = c.Req
		e.Sharers.Clear()
	case CommitRead, CommitMigratory:
		e.Owner = c.Req
		if c.Kind == CommitMigratory && migrated {
			e.Sharers.Clear()
			break
		}
		if c.Prev != HomeOwner && c.Prev != c.Req {
			e.Sharers.Add(c.Prev)
		}
		e.Sharers.Remove(c.Req)
	}
	if e.MigrAttempted {
		if !migrated {
			e.Migratory = false
		}
		e.MigrAttempted = false
	}
}

// entrySlabSize is the arena chunk size: entries are allocated in
// batches so first-touch of a block does not hit the allocator per
// entry, and entries of one home stay contiguous in memory.
const entrySlabSize = 64

// Directory holds the entries homed at one node. Entries live in an
// open-addressed table (see internal/addrmap) backed by a slab arena,
// so the per-request entry lookup is a couple of array probes rather
// than a runtime map access, and iteration is deterministic
// (insertion-ordered) rather than randomised.
type Directory struct {
	Home    msg.NodeID
	Enc     Encoding
	Tokens  int // total tokens per block (PATCH/TokenB); 0 for DIRECTORY
	entries addrmap.Map[*Entry]

	// slabs holds every arena chunk ever allocated; Reset rewinds the
	// carve position so a reused directory re-fills the same storage.
	slabs    [][]Entry
	slabCur  int // chunk currently being carved
	slabUsed int // entries used in slabs[slabCur]
}

// New creates an empty directory for blocks homed at home.
func New(home msg.NodeID, enc Encoding, tokens int) *Directory {
	return &Directory{Home: home, Enc: enc, Tokens: tokens}
}

// alloc carves one entry out of the slab arena. After a Reset the
// returned entry still carries its previous run's contents; the caller
// reinitialises every field.
func (d *Directory) alloc() *Entry {
	if d.slabCur < len(d.slabs) && d.slabUsed == entrySlabSize {
		d.slabCur++
		d.slabUsed = 0
	}
	if d.slabCur == len(d.slabs) {
		d.slabs = append(d.slabs, make([]Entry, entrySlabSize))
	}
	e := &d.slabs[d.slabCur][d.slabUsed]
	d.slabUsed++
	return e
}

// Reset empties the directory for reuse, retaining the index capacity
// and the entry slabs: entries touched after the reset re-carve the
// same storage (including each recycled entry's sharer bit vector and
// queue backing array, when the encoding's size allows). The encoding
// and token count may change across resets.
func (d *Directory) Reset(enc Encoding, tokens int) {
	d.Enc = enc
	d.Tokens = tokens
	d.entries.Clear()
	d.slabCur, d.slabUsed = 0, 0
}

// Entry returns the entry for addr, creating the initial "all tokens at
// home, memory owns, no sharers" state on first touch.
func (d *Directory) Entry(addr msg.Addr) *Entry {
	p := d.entries.Ptr(addr)
	if *p == nil {
		e := d.alloc()
		// Recycled slab entries donate their sharer vector and queue
		// capacity to the fresh state.
		sh := e.Sharers.reuse(d.Enc)
		q := e.Queue[:0]
		*e = Entry{
			Addr:    addr,
			Owner:   HomeOwner,
			Sharers: sh,
			Queue:   q,
		}
		if d.Tokens > 0 {
			e.Tok = token.State{Count: d.Tokens, Owner: true, Dirty: false, Valid: true}
		}
		*p = e
	}
	return *p
}

// PopQueue removes and returns the head of the entry's queue. The
// remaining entries shift down so the backing array stays anchored: a
// Queue[1:] re-slice would walk the array forward and force append to
// reallocate under steady-state churn.
func (e *Entry) PopQueue() msg.Message {
	m := e.Queue[0]
	copy(e.Queue, e.Queue[1:])
	e.Queue[len(e.Queue)-1] = msg.Message{}
	e.Queue = e.Queue[:len(e.Queue)-1]
	return m
}

// TokenHoldings implements token.Holder for conservation checks.
func (d *Directory) TokenHoldings(fn func(addr msg.Addr, count int, owner bool)) {
	d.entries.ForEach(func(a msg.Addr, e **Entry) {
		if !(*e).Tok.Zero() {
			fn(a, (*e).Tok.Count, (*e).Tok.Owner)
		}
	})
}

// ForEach visits every entry in first-touch order.
func (d *Directory) ForEach(fn func(e *Entry)) {
	d.entries.ForEach(func(_ msg.Addr, e **Entry) {
		fn(*e)
	})
}

// Len returns the number of touched blocks homed here.
func (d *Directory) Len() int { return d.entries.Len() }
