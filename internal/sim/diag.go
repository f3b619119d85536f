package sim

import (
	"fmt"
	"sort"
	"strings"

	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/protocol"
)

// FailKind classifies a RunError.
type FailKind int

const (
	// FailWatchdog: the liveness watchdog tripped (MaxCycles elapsed
	// before every core finished).
	FailWatchdog FailKind = iota
	// FailDeadlock: the event queue drained with cores unfinished.
	FailDeadlock
	// FailAudit: a periodic mid-run invariant audit found a violation
	// (token conservation, single-writer, queue-depth bound).
	FailAudit
)

func (k FailKind) String() string {
	switch k {
	case FailWatchdog:
		return "watchdog"
	case FailDeadlock:
		return "deadlock"
	case FailAudit:
		return "audit"
	}
	return fmt.Sprintf("FailKind(%d)", int(k))
}

// NodeDiag is the per-node slice of a diagnostic dump. Only nodes with
// outstanding state appear in Diagnostics.Nodes.
type NodeDiag struct {
	Node         int
	MSHRs        int // outstanding misses
	PendingSends int // messages parked off the wire: delayed sends, home lookups
	HeldTokens   int // tokens held across the node's cache + home slice
	DirBusy      int // home entries mid-transaction
	DirQueued    int // requests queued behind busy home entries
	DirMaxQueue  int // deepest single home queue
}

// Diagnostics is a structured snapshot of simulator state at the moment
// a run failed, attached to every RunError so liveness bugs ship their
// own forensics instead of a bare one-line error.
type Diagnostics struct {
	Cycles   uint64
	Fired    uint64 // events fired so far
	Queued   int    // events still queued
	Finished int    // cores that completed their streams
	Cores    int

	OutstandingMSHRs int
	PendingSends     int
	InFlightBlocks   int // blocks with tokens on the wire (token protocols)
	InFlightTokens   int

	// Nodes lists every node with outstanding state; OldestMisses the
	// globally oldest outstanding misses (at most eight), both in
	// deterministic order.
	Nodes        []NodeDiag
	OldestMisses []protocol.MSHRDiag
}

// summary renders the one-line forensic digest appended to Error().
func (d *Diagnostics) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d mshrs, %d delayed sends, %d tokens in flight on %d blocks, %d events queued",
		d.OutstandingMSHRs, d.PendingSends, d.InFlightTokens, d.InFlightBlocks, d.Queued)
	if len(d.OldestMisses) > 0 {
		m := d.OldestMisses[0]
		op := "read"
		if m.Write {
			op = "write"
		}
		fmt.Fprintf(&b, "; oldest miss %#x on core %d (%s, issued cycle %d)",
			uint64(m.Addr), int(m.Node), op, uint64(m.Issued))
	}
	return b.String()
}

// Dump renders the full multi-line diagnostic report (one line per
// non-idle node, then the oldest outstanding misses).
func (d *Diagnostics) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d/%d cores finished, %d events queued (%d fired), %s\n",
		d.Cycles, d.Finished, d.Cores, d.Queued, d.Fired, d.summary())
	for _, n := range d.Nodes {
		fmt.Fprintf(&b, "  node %d: %d mshrs, %d delayed sends, %d tokens held, dir %d busy / %d queued (max %d)\n",
			n.Node, n.MSHRs, n.PendingSends, n.HeldTokens, n.DirBusy, n.DirQueued, n.DirMaxQueue)
	}
	for _, m := range d.OldestMisses {
		op := "read"
		if m.Write {
			op = "write"
		}
		fmt.Fprintf(&b, "  miss %#x core %d %s issued cycle %d\n",
			uint64(m.Addr), int(m.Node), op, uint64(m.Issued))
	}
	return b.String()
}

// RunError is the typed failure a Run returns when the simulation
// stopped making progress or an invariant audit tripped. Error() keeps
// the historical "liveness watchdog" / "deadlock" phrasing and appends
// a one-line digest; Diag carries the full structured dump.
type RunError struct {
	Kind     FailKind
	Protocol Kind
	Workload string
	// Reason is the audit violation detail (FailAudit only).
	Reason string
	Diag   Diagnostics
}

func (e *RunError) Error() string {
	switch e.Kind {
	case FailWatchdog:
		return fmt.Sprintf("sim: liveness watchdog: %d cycles elapsed, %d/%d cores finished (%s on %s); %s",
			e.Diag.Cycles, e.Diag.Finished, e.Diag.Cores, e.Protocol, e.Workload, e.Diag.summary())
	case FailDeadlock:
		return fmt.Sprintf("sim: deadlock: event queue empty with %d/%d cores finished (%s on %s); %s",
			e.Diag.Finished, e.Diag.Cores, e.Protocol, e.Workload, e.Diag.summary())
	default:
		return fmt.Sprintf("sim: invariant audit failed at cycle %d (%s on %s): %s; %s",
			e.Diag.Cycles, e.Protocol, e.Workload, e.Reason, e.Diag.summary())
	}
}

// failRun builds a RunError of the given kind with a fresh diagnostic
// snapshot.
func (s *System) failRun(kind FailKind, reason string) *RunError {
	return &RunError{
		Kind:     kind,
		Protocol: s.Cfg.Protocol,
		Workload: s.workloadName(),
		Reason:   reason,
		Diag:     s.diagnose(),
	}
}

func (s *System) workloadName() string {
	if s.Cfg.TraceFile != "" {
		return s.Cfg.TraceFile
	}
	return s.Cfg.Workload
}

// diagnose snapshots the simulator's outstanding state. It is a cold
// path (runs once, when a run has already failed) and may allocate.
func (s *System) diagnose() Diagnostics {
	d := Diagnostics{
		Cycles:   uint64(s.Eng.Now()),
		Fired:    s.Eng.Fired(),
		Queued:   s.Eng.Len(),
		Finished: s.finished,
		Cores:    s.Cfg.Cores,
	}
	var misses []protocol.MSHRDiag
	for i, n := range s.Nodes {
		nd := NodeDiag{Node: i}
		start := len(misses)
		countTok := func(_ msg.Addr, count int, _ bool) { nd.HeldTokens += count }
		misses = n.AppendMSHRDiags(misses)
		b := n.Shared()
		b.L2.TokenHoldings(countTok)
		n.Home().TokenHoldings(countTok)
		dirDiag(n.Home(), &nd)
		b.Parked(func(event.Time, *msg.Message) { nd.PendingSends++ })
		nd.MSHRs = len(misses) - start
		d.PendingSends += nd.PendingSends
		if nd.MSHRs > 0 || nd.PendingSends > 0 || nd.DirBusy > 0 || nd.DirQueued > 0 {
			d.Nodes = append(d.Nodes, nd)
		}
	}
	d.OutstandingMSHRs = len(misses)
	sort.Slice(misses, func(i, j int) bool {
		a, b := misses[i], misses[j]
		if a.Issued != b.Issued {
			return a.Issued < b.Issued
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Addr < b.Addr
	})
	if len(misses) > 8 {
		misses = misses[:8]
	}
	d.OldestMisses = misses
	if s.auditor != nil {
		d.InFlightBlocks, d.InFlightTokens = s.auditor.InFlightTotals()
	}
	return d
}

func dirDiag(dir *directory.Directory, nd *NodeDiag) {
	dir.ForEach(func(e *directory.Entry) {
		if e.Busy {
			nd.DirBusy++
		}
		nd.DirQueued += len(e.Queue)
		if len(e.Queue) > nd.DirMaxQueue {
			nd.DirMaxQueue = len(e.Queue)
		}
	})
}
