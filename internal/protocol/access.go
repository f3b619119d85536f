package protocol

import (
	"patch/internal/cache"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/token"
)

// AccessL2 begins a memory operation: it counts the load or store and
// returns the block's L2 line (nil if absent), updating LRU. The
// backend decides whether the line suffices; if it does, Hit finishes
// the access.
//
//patch:steadystate
func (b *Base) AccessL2(addr msg.Addr, isWrite bool) *cache.Line {
	if isWrite {
		b.St.Stores++
	} else {
		b.St.Loads++
	}
	return b.L2.Access(addr)
}

// Hit finishes an access the L2 satisfied, once the backend has applied
// any write to the line: it reports the perform at version, charges the
// L1 or L2 hit (filling the L1 on an L2 hit), and schedules done after
// that level's latency.
//
//patch:steadystate
func (b *Base) Hit(addr msg.Addr, isWrite bool, version uint64, done func()) {
	b.ObservePerform(addr, isWrite, version)
	lvl := 2
	if b.InL1(addr) {
		lvl = 1
		b.St.L1Hits++
	} else {
		b.St.L2Hits++
		b.TouchL1(addr)
	}
	b.Env.Eng.After0(b.HitLatency(lvl), done)
}

// TokenHit is the L2-hit path of the token-counting backends (PATCH,
// TokenB): it counts the operation and, if the line holds enough tokens
// (TokensSuffice), performs it — a store marks the owner token dirty
// (Rule #2) and bumps the version — and schedules done. Otherwise it
// returns the line (nil if absent) and false for the caller's miss path.
//
//patch:steadystate
func (b *Base) TokenHit(addr msg.Addr, isWrite bool, done func()) (*cache.Line, bool) {
	line := b.AccessL2(addr, isWrite)
	if line == nil || !b.TokensSuffice(line, isWrite) {
		return line, false
	}
	if isWrite {
		line.Tok.Dirty = true
		line.MOESI = token.M
		line.Written = true
		line.Version++
	}
	b.Hit(addr, isWrite, line.Version, done)
	return line, true
}

// TokensSuffice applies the token-counting permission rules (Table 1):
// a write needs all T tokens, a read valid data and at least one token.
func (b *Base) TokensSuffice(l *cache.Line, isWrite bool) bool {
	if isWrite {
		return l.Tok.CanWrite(b.Env.Tokens)
	}
	return l.Tok.CanRead()
}

// InstallLine allocates the block in the L2, never displacing a line
// with an outstanding miss, and hands a copy of a displaced victim to
// the backend's writeback (Bind) — evictions are never silent for
// tokens, since Rule #1 forbids destroying them.
func (b *Base) InstallLine(addr msg.Addr) *cache.Line {
	line, evicted := b.L2.AllocateAvoid(addr, b.avoid)
	if evicted.Present {
		b.evict(evicted)
	}
	return line
}

// EvictTokens is the token-counting backends' victim writeback: the
// displaced line's whole holding returns to the home, with data if the
// owner token is dirty (Rule #4).
func (b *Base) EvictTokens(l cache.Line) {
	b.InvalidateL1(l.Addr)
	if l.Tok.Zero() {
		return
	}
	tokens, owner, dirty := l.Tok.TakeAll()
	t := msg.PutClean
	if dirty {
		t = msg.PutM
		b.St.WritebacksDirty++
	} else {
		b.St.WritebacksClean++
	}
	wb := b.Msg(msg.Message{Type: t, Addr: l.Addr, Dst: b.Env.HomeOf(l.Addr), Requester: b.ID, Version: l.Version})
	token.Attach(wb, tokens, owner, dirty, dirty)
	b.Send(wb)
}

// HitLatency models the L1/L2 lookup path for a hit that was filtered at
// level lvl (1 or 2).
func (b *Base) HitLatency(lvl int) event.Time {
	if lvl == 1 {
		return event.Time(b.Env.L1Latency)
	}
	return event.Time(b.Env.L2Latency)
}

// TouchL1 installs the block in the L1 filter (evictions are silent; L1
// is a latency filter and coherence lives at the L2).
func (b *Base) TouchL1(addr msg.Addr) {
	l, _ := b.L1.Allocate(addr)
	b.L1.Touch(l)
}

// InL1 reports an L1 filter hit, updating LRU.
func (b *Base) InL1(addr msg.Addr) bool {
	return b.L1.Access(addr) != nil
}

// InvalidateL1 removes the block from the L1 filter (L1 content must stay
// a subset of L2 coherence permissions).
func (b *Base) InvalidateL1(addr msg.Addr) {
	if l := b.L1.Lookup(addr); l != nil {
		b.L1.Drop(l)
	}
}
