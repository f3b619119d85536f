// Package interconnect models the paper's 2D-torus interconnection
// network: per-link bandwidth contention, fan-out multicast routing, and
// a low-priority best-effort message class that is invisible to normal
// traffic, consumes only leftover bandwidth, and drops messages that have
// been queued for too long (the paper drops direct requests queued more
// than 100 cycles).
//
// Contention model. Messages advance hop by hop as discrete events. Each
// unidirectional link keeps a scalar "busy until" horizon per priority
// class, advanced only when a message actually arrives at the link (so a
// message never queues behind traffic that has not physically reached
// the switch yet). A message departs a link at
//
//	depart = max(arrive, horizon) + serialization
//
// and normal traffic advances only the normal horizon, while best-effort
// traffic sees both horizons but advances only its own: best-effort
// direct requests consume only leftover bandwidth and never delay other
// messages (§6).
//
// Hot path. The network performs no steady-state allocation. Link
// horizons are dense slices indexed by topology.LinkIndex. Each (src,
// dst) pair's dimension-order route is computed once and cached as hops
// that carry their link's index, so crossing a link never recomputes it.
// A full broadcast (every node but the source, in ascending order: the
// list TokenB's and PATCH-All's requests go to) walks its source's
// fan-out tree, built on that source's first broadcast and kept for the
// network's lifetime; any other destination list builds its own tree per
// walk. Hop and delivery events are pooled event.Tasks rather than
// closures, multicast walks reuse scratch bitsets and child tables, and
// in-flight messages come from a per-network msg.Pool released back
// after delivery.
package interconnect

import (
	"patch/internal/event"
	"patch/internal/fault"
	"patch/internal/msg"
	"patch/internal/topology"
)

// Config holds the interconnect parameters from the paper's methods
// section (§8.1).
type Config struct {
	// BytesPerKiloCycle is the per-link throughput. The paper's default is
	// 16 bytes/cycle (16000 here); the bandwidth-adaptivity experiments
	// sweep 300..8000 bytes per 1000 cycles.
	BytesPerKiloCycle int

	// HopLatency is the per-link wire+switch latency in cycles, and
	// RouteOverhead a fixed per-message routing overhead; together they
	// give the paper's "total link latency of 15 cycles" for an average
	// route on the 64-core torus.
	HopLatency    int
	RouteOverhead int

	// DropAfter is the queueing age (cycles) beyond which a best-effort
	// message is discarded (100 in the paper).
	DropAfter int

	// Unbounded disables bandwidth accounting entirely (used by the
	// Figure 9 "unbounded link bandwidth" configurations).
	Unbounded bool

	// Fault, when non-nil and enabled, injects deterministic adversarial
	// delay on every link crossing (jitter, degradation windows,
	// congestion bursts — see internal/fault). nil is a strict no-op.
	Fault *fault.Plan
}

// DefaultConfig returns the baseline configuration from §8.1.
func DefaultConfig() Config {
	return Config{
		BytesPerKiloCycle: 16000,
		HopLatency:        3,
		RouteOverhead:     3,
		DropAfter:         100,
	}
}

// Handler receives delivered messages at a node.
type Handler func(now event.Time, m *msg.Message)

// LinkStats aggregates per-class traffic accounting. Traffic is measured
// as in GEMS: bytes multiplied by the number of links traversed, so
// fan-out multicast requests are cheaper than the equivalent unicasts
// while acknowledgement implosion is fully charged.
type LinkStats struct {
	BytesByClass [msg.NumClasses]uint64
	MsgsByClass  [msg.NumClasses]uint64
	LinkBytes    uint64 // total bytes*links
	Delivered    uint64
	Dropped      uint64 // best-effort messages discarded as stale
	QueueCycles  uint64 // total queueing delay accumulated by normal traffic
}

// Network is the torus interconnect. It is not safe for concurrent use;
// the simulator is single-threaded and deterministic.
type Network struct {
	cfg   Config
	topo  topology.Torus
	eng   *event.Engine
	nodes []Handler

	pool msg.Pool

	// horizon[LinkIndex] is the time the link becomes free per class.
	normalHorizon []event.Time
	beHorizon     []event.Time

	// routes caches dimension-order routes, indexed src*N+dst and filled
	// lazily; a cached route is immutable and shared by every message.
	routes [][]hop
	// bcast[src] is src's full-broadcast tree (see broadcastTree), built
	// on src's first broadcast. Like routes it depends only on the torus,
	// so Reset keeps it.
	bcast []tree

	taskFree []*netTask
	walkFree []*mcastWalk

	// inj injects per-link fault delay; nil when cfg.Fault is absent or
	// a no-op, which keeps the fault-free hot path down to nil checks.
	inj *fault.Injector
	// faultFloor[LinkIndex] is the latest faulted arrival scheduled over
	// the link: injected delay varies per crossing, but a physical link
	// still delivers in order, and protocol machinery (TokenB's
	// persistent-request activation/deactivation pairs) relies on that
	// per-link FIFO. Jitter therefore reorders traffic across different
	// routes, never within one link. Allocated only when inj is.
	faultFloor []event.Time

	// OnSend and OnDeliver are observability hooks (tracing, token
	// auditing); nil disables them. OnSend fires once per logical message
	// (including one per multicast), OnDeliver once per delivered copy.
	OnSend    func(now event.Time, m *msg.Message)
	OnDeliver func(now event.Time, m *msg.Message)

	Stats LinkStats
}

// New creates a network over n nodes and configures it with Reset, so a
// new network and a reset one start from the same state under cfg.
func New(eng *event.Engine, n int, cfg Config) *Network {
	topo := topology.New(n)
	net := &Network{
		topo:          topo,
		eng:           eng,
		nodes:         make([]Handler, n),
		normalHorizon: make([]event.Time, topo.NumLinks()),
		beHorizon:     make([]event.Time, topo.NumLinks()),
		routes:        make([][]hop, n*n),
		bcast:         make([]tree, n),
	}
	net.Reset(cfg)
	return net
}

// Reset returns the network to its initial state under cfg, retaining
// the route and broadcast-tree caches, the pooled tasks and multicast
// walks, and the message pool (none of which affect behaviour). The
// node count is fixed at construction; handler registrations survive,
// observability hooks are cleared. Reset must only be called when no
// messages are in flight (a completed, quiesced simulation).
func (n *Network) Reset(cfg Config) {
	n.cfg = cfg
	clear(n.normalHorizon)
	clear(n.beHorizon)
	n.Stats = LinkStats{}
	n.OnSend, n.OnDeliver = nil, nil
	switch {
	case !cfg.Fault.Enabled():
		n.inj = nil
	case n.inj == nil:
		n.inj = fault.New(*cfg.Fault, n.topo.NumLinks())
		if n.faultFloor == nil {
			n.faultFloor = make([]event.Time, n.topo.NumLinks())
		}
	default:
		// Rewind the reused injector's streams so a Reset system replays
		// the same fault weather as a fresh one.
		n.inj.Reset(*cfg.Fault, n.topo.NumLinks())
	}
	clear(n.faultFloor)
}

// faultArrive clamps a faulted crossing's arrival so the link stays
// FIFO (see faultFloor). Called only when inj is non-nil.
func (n *Network) faultArrive(li int, arrive event.Time) event.Time {
	if arrive < n.faultFloor[li] {
		arrive = n.faultFloor[li]
	}
	n.faultFloor[li] = arrive
	return arrive
}

// Register installs the message handler for a node. Every node must be
// registered before traffic is sent to it.
func (n *Network) Register(id msg.NodeID, h Handler) { n.nodes[id] = h }

// NewMessage acquires a pooled message initialised to v. The reference
// is consumed by Send/Multicast; the network releases it after delivery.
// A receiving handler that keeps the message beyond its own return must
// Retain it (or copy it by value) and Release it when done.
func (n *Network) NewMessage(v msg.Message) *msg.Message { return n.pool.New(v) }

// Retain adds a reference to a pooled message (no-op for messages built
// outside the pool).
func (n *Network) Retain(m *msg.Message) { n.pool.Retain(m) }

// Release drops a reference to a pooled message (no-op for messages
// built outside the pool).
func (n *Network) Release(m *msg.Message) { n.pool.Release(m) }

// hop is one link of a cached route or tree: the node the link enters
// and the link's dense topology.LinkIndex, computed once when the route
// is cached rather than at every crossing.
type hop struct {
	to, li int32
}

// route returns the cached dimension-order route from src to dst
// (src != dst).
func (n *Network) route(src, dst int) []hop {
	i := src*len(n.nodes) + dst
	r := n.routes[i]
	if r == nil {
		links := n.topo.Route(src, dst)
		r = make([]hop, len(links))
		for j, l := range links {
			r[j] = hop{to: int32(l.To), li: int32(n.topo.LinkIndex(l))}
		}
		n.routes[i] = r
	}
	return r
}

// serialization returns the cycles a message occupies a link.
func (n *Network) serialization(bytes int) event.Time {
	if n.cfg.Unbounded || n.cfg.BytesPerKiloCycle <= 0 {
		return 0
	}
	// ceil(bytes*1000 / BytesPerKiloCycle)
	return event.Time((bytes*1000 + n.cfg.BytesPerKiloCycle - 1) / n.cfg.BytesPerKiloCycle)
}

// traverse crosses link li at the current time (the message has
// physically arrived at the switch), returning the arrival time at the
// far side or ok=false when a best-effort message must be dropped.
func (n *Network) traverse(li int, now event.Time, ser event.Time, bestEffort bool) (event.Time, bool) {
	var extra event.Time
	if n.inj != nil {
		extra = event.Time(n.inj.Delay(li, uint64(now), uint64(n.cfg.HopLatency)))
	}
	if n.cfg.Unbounded {
		arr := now + event.Time(n.cfg.HopLatency) + extra
		if n.inj != nil {
			arr = n.faultArrive(li, arr)
		}
		return arr, true
	}
	if bestEffort {
		start := now
		if h := n.normalHorizon[li]; h > start {
			start = h
		}
		if h := n.beHorizon[li]; h > start {
			start = h
		}
		if n.cfg.DropAfter > 0 && start > now+event.Time(n.cfg.DropAfter) {
			return 0, false
		}
		depart := start + ser
		n.beHorizon[li] = depart
		// Fault delay extends the wire time, not the queueing age, so the
		// drop decision above is unchanged by injection.
		arr := depart + event.Time(n.cfg.HopLatency) + extra
		if n.inj != nil {
			arr = n.faultArrive(li, arr)
		}
		return arr, true
	}
	start := now
	if h := n.normalHorizon[li]; h > start {
		start = h
	}
	n.Stats.QueueCycles += uint64(start - now)
	depart := start + ser
	n.normalHorizon[li] = depart
	arr := depart + event.Time(n.cfg.HopLatency) + extra
	if n.inj != nil {
		arr = n.faultArrive(li, arr)
	}
	return arr, true
}

// account records a message's traffic contribution for links links.
func (n *Network) account(m *msg.Message, links int) {
	n.Stats.MsgsByClass[m.TrafficClass()]++
	n.accountBytes(m, links)
}

// accountBytes charges link bytes without recounting the message (used
// per tree link by multicasts).
func (n *Network) accountBytes(m *msg.Message, links int) {
	c := m.TrafficClass()
	b := uint64(m.Bytes() * links)
	n.Stats.BytesByClass[c] += b
	n.Stats.LinkBytes += b
}

// netTask is a pooled event.Task covering the network's three event
// kinds, so the hot path schedules no closures: a unicast in flight
// reuses one hop task across all its links, then one delivery task.
type netTask struct {
	net   *Network
	kind  uint8
	m     *msg.Message
	route []hop
	idx   int
	ser   event.Time
	walk  *mcastWalk
	node  int
}

const (
	taskHop = iota
	taskDeliver
	taskFanout
)

//patch:steadystate
func (n *Network) newTask() *netTask {
	if l := len(n.taskFree); l > 0 {
		t := n.taskFree[l-1]
		n.taskFree = n.taskFree[:l-1]
		return t
	}
	return &netTask{net: n}
}

//patch:steadystate
func (n *Network) freeTask(t *netTask) {
	t.m = nil
	t.route = nil
	t.walk = nil
	n.taskFree = append(n.taskFree, t)
}

// Fire implements event.Task.
func (t *netTask) Fire(now event.Time) {
	n := t.net
	switch t.kind {
	case taskHop:
		n.fireHop(t, now)
	case taskDeliver:
		m := t.m
		n.freeTask(t)
		if n.OnDeliver != nil {
			n.OnDeliver(now, m)
		}
		n.nodes[m.Dst](now, m)
		n.pool.Release(m)
	case taskFanout:
		n.fireFanout(t, now)
	}
}

// deliver schedules the handler invocation at time at, taking
// ownership of m: the delivery task releases it to the pool after the
// handler runs.
//
//patch:sink
//patch:steadystate
func (n *Network) deliver(at event.Time, m *msg.Message) {
	if n.nodes[m.Dst] == nil {
		panic("interconnect: message to unregistered node")
	}
	n.Stats.Delivered++
	t := n.newTask()
	t.kind = taskDeliver
	t.m = m
	n.eng.At(at, t)
}

// Send transmits a unicast message from m.Src to m.Dst, modelling route
// latency and per-link contention hop by hop. Local (Src == Dst)
// messages are delivered after one cycle without consuming link
// bandwidth. Send consumes the caller's reference to a pooled message.
func (n *Network) Send(m *msg.Message) {
	if n.OnSend != nil {
		n.OnSend(n.eng.Now(), m)
	}
	n.sendRouted(m)
}

// sendRouted performs the routing and contention without firing OnSend
// (multicast copies are announced once by Multicast). Like Send it
// consumes the caller's reference to m.
//
//patch:sink
func (n *Network) sendRouted(m *msg.Message) {
	now := n.eng.Now()
	if m.Src == m.Dst {
		n.account(m, 0)
		n.deliver(now+1, m)
		return
	}
	route := n.route(int(m.Src), int(m.Dst))
	if n.cfg.Unbounded && n.inj == nil {
		// Direct delivery is only valid when every hop costs exactly
		// HopLatency; fault injection charges per-link delay, so faulted
		// unbounded traffic walks the route hop by hop like bounded
		// traffic does.
		n.account(m, len(route))
		n.deliver(now+event.Time(n.cfg.RouteOverhead+n.cfg.HopLatency*len(route)), m)
		return
	}
	t := n.newTask()
	t.kind = taskHop
	t.m = m
	t.route = route
	t.idx = 0
	t.ser = n.serialization(m.Bytes())
	n.eng.At(now+event.Time(n.cfg.RouteOverhead), t)
}

// fireHop traverses route[idx] now that the message has arrived at its
// near side, rescheduling the same task for the next switch arrival.
//
//patch:steadystate
func (n *Network) fireHop(t *netTask, now event.Time) {
	next, ok := n.traverse(int(t.route[t.idx].li), now, t.ser, t.m.BestEffort)
	if !ok {
		n.Stats.Dropped++
		n.pool.Release(t.m)
		n.freeTask(t)
		return
	}
	t.idx++
	if t.idx == len(t.route) {
		m := t.m
		n.account(m, len(t.route))
		n.freeTask(t)
		n.deliver(next, m)
		return
	}
	n.eng.At(next, t)
}

// tree is a fan-out multicast tree in flat form: the links leaving node
// v are kids[first[v]:first[v+1]], in the order a walk crosses them.
type tree struct {
	first []int32
	kids  []hop
}

// mcastWalk is the pooled per-multicast state: the fan-out tree (the
// source's cached broadcast tree, or one built for this walk as a
// per-node child table), the destination set and deduplicated tree links
// as scratch bitsets, and a reference count of outstanding fan-out
// events. The walk owns one reference to the multicast's master message
// until the last fan-out event has fired.
type mcastWalk struct {
	m           *msg.Message
	ser         event.Time
	bcast       *tree    // the broadcast tree walked, or nil for a built one
	children    [][]hop  // the built tree's child lists
	touched     []int32  // nodes with non-empty child lists, for O(tree) reset
	want        []uint64 // destination-node bitset of a built tree
	seen        []uint64 // tree-link bitset over topology.LinkIndex
	outstanding int
}

func (w *mcastWalk) setWant(node int) { w.want[node/64] |= 1 << (node % 64) }

// kids returns the tree links leaving node, in walk order.
func (w *mcastWalk) kids(node int) []hop {
	if t := w.bcast; t != nil {
		return t.kids[t.first[node]:t.first[node+1]]
	}
	return w.children[node]
}

// wants reports whether node is a destination; a broadcast wants every
// node its tree reaches.
func (w *mcastWalk) wants(node int) bool {
	return w.bcast != nil || w.want[node/64]&(1<<(node%64)) != 0
}

func (n *Network) newWalk(m *msg.Message, ser event.Time) *mcastWalk {
	var w *mcastWalk
	if l := len(n.walkFree); l > 0 {
		w = n.walkFree[l-1]
		n.walkFree = n.walkFree[:l-1]
	} else {
		nodes, links := len(n.nodes), n.topo.NumLinks()
		w = &mcastWalk{
			children: make([][]hop, nodes),
			want:     make([]uint64, (nodes+63)/64),
			seen:     make([]uint64, (links+63)/64),
		}
		// A tree holds each link once, and topology.LinkIndex gives each
		// node's outgoing links links/nodes indices of their own, so
		// each child list gets that many slots of one array and building
		// a tree never allocates.
		per := links / nodes
		kids := make([]hop, links)
		for v := range w.children {
			w.children[v] = kids[v*per : v*per : (v+1)*per]
		}
	}
	w.m = m
	w.ser = ser
	w.outstanding = 1 // the builder's reference, dropped by walkDone
	return w
}

// walkDone drops one reference to the walk; the last reference releases
// the master message and returns the scratch state to the pool.
func (n *Network) walkDone(w *mcastWalk) {
	if w.outstanding--; w.outstanding > 0 {
		return
	}
	n.pool.Release(w.m)
	for _, node := range w.touched {
		w.children[node] = w.children[node][:0]
	}
	w.touched = w.touched[:0]
	clear(w.want)
	clear(w.seen)
	w.m = nil
	w.bcast = nil
	n.walkFree = append(n.walkFree, w)
}

// buildTree unions the cached dimension-order routes from src to every
// destination into the walk's child table, deduplicated so each tree
// link appears once: the tree topology.MulticastTree computes, with the
// same child order, built without maps. A node's child list follows the
// order in which the destinations' routes first cross its links.
func (n *Network) buildTree(w *mcastWalk, src int, dsts []msg.NodeID) {
	for _, d := range dsts {
		if int(d) == src {
			continue
		}
		from := src
		for _, h := range n.route(src, int(d)) {
			if w.seen[h.li/64]&(1<<(h.li%64)) == 0 {
				w.seen[h.li/64] |= 1 << (h.li % 64)
				if len(w.children[from]) == 0 {
					w.touched = append(w.touched, int32(from))
				}
				w.children[from] = append(w.children[from], h)
			}
			from = int(h.to)
		}
	}
}

// isBroadcast reports whether dsts is every node but src in ascending
// order: the list protocol.Base.OthersExcept builds.
func (n *Network) isBroadcast(src msg.NodeID, dsts []msg.NodeID) bool {
	if len(dsts) != len(n.nodes)-1 {
		return false
	}
	for i, d := range dsts {
		want := msg.NodeID(i)
		if want >= src {
			want++
		}
		if d != want {
			return false
		}
	}
	return true
}

// broadcastTree returns src's full-broadcast tree, building it on src's
// first broadcast: buildTree's tree for dsts, the ascending all-but-src
// list, frozen into flat child lists in the same order, so walking it
// fires every event as walking a per-multicast tree would.
func (n *Network) broadcastTree(w *mcastWalk, src int, dsts []msg.NodeID) *tree {
	t := &n.bcast[src]
	if t.first != nil {
		return t
	}
	n.buildTree(w, src, dsts)
	links := 0
	for _, v := range w.touched {
		links += len(w.children[v])
	}
	t.first = make([]int32, len(n.nodes)+1)
	t.kids = make([]hop, 0, links)
	for v, c := range w.children {
		t.first[v] = int32(len(t.kids))
		t.kids = append(t.kids, c...)
	}
	t.first[len(n.nodes)] = int32(len(t.kids))
	return t
}

// Multicast transmits copies of m to every destination in dsts using a
// fan-out multicast tree: each tree link is charged once. Per-destination
// copies of the message are created with Dst set. A full broadcast (see
// isBroadcast) walks its source's cached tree; any other list builds its
// own. Best-effort multicasts prune any subtree whose entry link is
// congested past the drop threshold. Multicast consumes the caller's
// reference to a pooled m.
func (n *Network) Multicast(m *msg.Message, dsts []msg.NodeID) {
	if len(dsts) == 0 {
		n.pool.Release(m)
		return
	}
	if n.OnSend != nil {
		n.OnSend(n.eng.Now(), m)
	}
	if len(dsts) == 1 {
		c := n.pool.New(*m)
		c.Dst = dsts[0]
		n.sendRouted(c)
		n.pool.Release(m)
		return
	}
	now := n.eng.Now()
	ser := n.serialization(m.Bytes())
	w := n.newWalk(m, ser)
	if n.isBroadcast(m.Src, dsts) {
		w.bcast = n.broadcastTree(w, int(m.Src), dsts)
	} else {
		for _, d := range dsts {
			if d == m.Src {
				c := n.pool.New(*m)
				c.Dst = d
				n.account(c, 0)
				n.deliver(now+1, c)
				continue
			}
			w.setWant(int(d))
		}
		n.buildTree(w, int(m.Src), dsts)
	}
	n.Stats.MsgsByClass[m.TrafficClass()]++
	n.walkFrom(w, int(m.Src), now+event.Time(n.cfg.RouteOverhead))
	n.walkDone(w)
}

// walkFrom propagates the multicast from node: one pooled fan-out event
// per switch arrival under contention, synchronous recursion when links
// are unbounded.
func (n *Network) walkFrom(w *mcastWalk, node int, arrive event.Time) {
	kids := w.kids(node)
	if len(kids) == 0 {
		return
	}
	if n.cfg.Unbounded {
		// No contention state to serialise on: propagate directly.
		for _, h := range kids {
			t := arrive + event.Time(n.cfg.HopLatency)
			if n.inj != nil {
				t += event.Time(n.inj.Delay(int(h.li), uint64(arrive), uint64(n.cfg.HopLatency)))
				t = n.faultArrive(int(h.li), t)
			}
			n.accountBytes(w.m, 1)
			if w.wants(int(h.to)) {
				c := n.pool.New(*w.m)
				c.Dst = msg.NodeID(h.to)
				n.deliver(t, c)
			}
			n.walkFrom(w, int(h.to), t)
		}
		return
	}
	w.outstanding++
	t := n.newTask()
	t.kind = taskFanout
	t.walk = w
	t.node = node
	n.eng.At(arrive, t)
}

// fireFanout crosses every child link of one tree node, delivering to
// wanted destinations and scheduling the next level of the walk.
//
//patch:steadystate
func (n *Network) fireFanout(t *netTask, now event.Time) {
	w := t.walk
	node := t.node
	n.freeTask(t)
	for _, h := range w.kids(node) {
		arr, ok := n.traverse(int(h.li), now, w.ser, w.m.BestEffort)
		if !ok {
			n.Stats.Dropped++ // whole subtree dropped
			continue
		}
		n.accountBytes(w.m, 1)
		if w.wants(int(h.to)) {
			c := n.pool.New(*w.m)
			c.Dst = msg.NodeID(h.to)
			n.deliver(arr, c)
		}
		n.walkFrom(w, int(h.to), arr)
	}
	n.walkDone(w)
}
