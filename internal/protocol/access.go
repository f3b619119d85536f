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
	b.Env.Eng.After(b.HitLatency(lvl), doneTask(done))
}

// doneTask adapts an access's completion callback to event.Task. A func
// value is pointer-shaped, so the conversion allocates nothing.
type doneTask func()

// Fire implements event.Task.
func (f doneTask) Fire(event.Time) { f() }

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

// ReceiveTokens folds the tokens m carries into the block's L2 line,
// installing it if absent, and takes the data's version when m carries
// data. It returns the line.
//
//patch:steadystate
func (b *Base) ReceiveTokens(m *msg.Message) *cache.Line {
	line := b.InstallLine(m.Addr)
	line.Tok.Add(m.Tokens, m.Owner, m.OwnerDirty, m.HasData)
	if m.HasData && m.Version > line.Version {
		line.Version = m.Version
	}
	return line
}

// NoteResponse accounts a token response m to the outstanding miss ms:
// the first response's round trip feeds the adaptive timeout, and the
// first data response classifies the miss as served by memory (the
// home) or by another cache. Time to first response measures
// uncontended service latency: a contended miss whose requests were
// ignored draws no response at all, so the estimate has no contention
// feedback loop.
//
//patch:steadystate
func (b *Base) NoteResponse(ms *MSHR, now event.Time, m *msg.Message) {
	if !ms.sawResp {
		ms.sawResp = true
		b.ObserveRTT(now - ms.Issued)
	}
	if m.HasData && !ms.classified {
		ms.classified = true
		if m.Src == b.Env.HomeOf(m.Addr) {
			b.St.MemoryMisses++
		} else {
			b.St.SharingMisses++
		}
	}
}

// PerformMiss performs the access that opened ms once the line's tokens
// suffice: a store marks the owner token dirty (Rule #2) and bumps the
// version, the perform is reported, the line's MOESI state follows its
// tokens, the L1 is filled and the miss latency charged. The caller
// then releases the core (MSHR.Done).
//
//patch:steadystate
func (b *Base) PerformMiss(ms *MSHR, line *cache.Line, now event.Time) {
	if ms.IsWrite {
		line.Tok.Dirty = true
		line.Written = true
		line.Version++
	}
	b.ObservePerform(ms.Addr, ms.IsWrite, line.Version)
	line.MOESI = line.Tok.ToMOESI(b.Env.Tokens)
	b.TouchL1(ms.Addr)
	b.St.MissLatencySum += uint64(now - ms.Issued)
}

// GiveTokens answers a request from the line's holding by the
// token-counting response rules, filling in resp's type, tokens, data
// and version. The line must hold tokens and, for a read, the owner
// token.
//
//   - A write takes the whole holding, with data if the owner token is
//     in it.
//   - A read marked migratory, reaching an owner that wrote the block
//     and holds all T tokens, takes everything too: the reader's next
//     write then hits locally. resp is marked Migratory.
//   - Any other read moves ownership: the owner token, data and all
//     but one token go, so the previous owner stays a sharer when it
//     can (successive readers of a chain each keep an S copy).
//
// A line left without tokens is dropped from both cache levels.
//
//patch:steadystate
func (b *Base) GiveTokens(line *cache.Line, resp *msg.Message, write, migratory bool) {
	resp.Version = line.Version
	switch {
	case write:
		tokens, owner, dirty := line.Tok.TakeAll()
		resp.Type = msg.Ack
		if owner {
			resp.Type = msg.Data
		}
		token.Attach(resp, tokens, owner, dirty, owner)
		b.DropLine(line)
	case migratory && line.Written && line.Tok.Count == b.Env.Tokens:
		tokens, owner, dirty := line.Tok.TakeAll()
		resp.Type = msg.Data
		resp.Migratory = true
		token.Attach(resp, tokens, owner, dirty, true)
		b.DropLine(line)
	default:
		dirty := line.Tok.TakeOwner()
		keep := min(line.Tok.Count, 1)
		give := 1 + line.Tok.TakeNonOwner(line.Tok.Count-keep)
		resp.Type = msg.Data
		token.Attach(resp, give, true, dirty, true)
		if keep == 0 {
			b.DropLine(line)
		} else {
			line.MOESI = token.S
		}
	}
}

// DropLine removes the block from both cache levels. Dropping zeroes
// the line, so callers read what they need from it first.
//
//patch:steadystate
func (b *Base) DropLine(line *cache.Line) {
	b.InvalidateL1(line.Addr)
	b.L2.Drop(line)
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
		return L1Latency
	}
	return L2Latency
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
