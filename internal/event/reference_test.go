package event

// refEngine is the binary-heap engine the calendar queue replaced, kept
// as the reference the differential tests and BenchmarkQueue compare
// against: one (time, sequence) min-heap of every queued event,
// cancelled entries skipped lazily when they surface at the top.
type refEngine struct {
	heap  []refEntry
	items []item
	free  []int32
	now   Time
	seq   uint64
	fired uint64
}

type refEntry struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

type refHandle struct {
	eng *refEngine
	idx int32
	gen uint32
}

func (h refHandle) Cancel() {
	if h.eng == nil || h.eng.items[h.idx].gen != h.gen {
		return
	}
	h.eng.freeItem(h.idx)
}

func (h refHandle) Pending() bool {
	return h.eng != nil && h.eng.items[h.idx].gen == h.gen
}

func (e *refEngine) Now() Time     { return e.now }
func (e *refEngine) Fired() uint64 { return e.fired }
func (e *refEngine) Len() int      { return len(e.heap) }

func (e *refEngine) Reset() {
	for _, en := range e.heap {
		if e.items[en.idx].gen == en.gen {
			e.freeItem(en.idx)
		}
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
}

func (e *refEngine) At(t Time, task Task) refHandle {
	if t < e.now {
		t = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.items = append(e.items, item{})
		idx = int32(len(e.items) - 1)
	}
	it := &e.items[idx]
	it.task = task
	e.push(refEntry{at: t, seq: e.seq, idx: idx, gen: it.gen})
	e.seq++
	return refHandle{eng: e, idx: idx, gen: it.gen}
}

func (e *refEngine) After(d Time, task Task) refHandle { return e.At(e.now+d, task) }

func (e *refEngine) freeItem(idx int32) {
	it := &e.items[idx]
	it.gen++
	it.task = nil
	e.free = append(e.free, idx)
}

func refLess(a, b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) push(en refEntry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *refEngine) popTop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && refLess(e.heap[r], e.heap[l]) {
			c = r
		}
		if !refLess(e.heap[c], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[c] = e.heap[c], e.heap[i]
		i = c
	}
}

func (e *refEngine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		e.popTop()
		it := &e.items[top.idx]
		if it.gen != top.gen {
			continue
		}
		task := it.task
		e.freeItem(top.idx)
		e.now = top.at
		e.fired++
		task.Fire(e.now)
		return true
	}
	return false
}

func (e *refEngine) Run(limit uint64) uint64 {
	var n uint64
	for {
		if limit > 0 && n >= limit {
			return n
		}
		if !e.Step() {
			return n
		}
		n++
	}
}
