// Race walkthrough: reproduces the racing-writers scenario of the
// paper's Figures 1 and 2 on a four-node PATCH system and narrates how
// token tenure resolves it.
//
// Figure 1 shows that naively adding direct requests to token counting
// starves: P2's direct request takes P1's token while P1's own write is
// being serviced through the home, leaving both waiting for tokens that
// will never arrive. Token tenure (Figure 2) bounds how long the stolen
// tokens may stay untenured: they flow back to the home, which redirects
// them to the active requester, and both writes complete.
//
//	go run ./examples/race_tenure
package main

import (
	"fmt"

	"patch/internal/core"
	"patch/internal/directory"
	"patch/internal/event"
	"patch/internal/interconnect"
	"patch/internal/msg"
	"patch/internal/predictor"
	"patch/internal/protocol"
)

func main() {
	const n = 4
	eng := &event.Engine{}
	net := interconnect.New(eng, n, interconnect.DefaultConfig())
	env := protocol.DefaultEnv(eng, net, n)
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.New(msg.NodeID(i), env, protocol.Params{
			Enc: directory.FullMap(n), Policy: predictor.All, BestEffort: true,
		})
		net.Register(msg.NodeID(i), nodes[i].Handle)
	}

	// Pick a block homed at node 3 (the figure's "Home").
	var addr msg.Addr
	for a := msg.Addr(0x10000); ; a += msg.Addr(env.BlockSize) {
		if env.HomeOf(a) == 3 {
			addr = a
			break
		}
	}
	state := func(who int) string {
		l := nodes[who].L2.Lookup(addr)
		if l == nil {
			return "I t=0"
		}
		return fmt.Sprintf("%v t=%d", l.Tok.ToMOESI(env.Tokens), l.Tok.Count)
	}

	fmt.Println("Setting up Figure 1's initial state: P0 = O (owner + spare tokens), P1 = S.")
	nodes[0].Access(addr, true, func() {})
	eng.Run(0)
	nodes[1].Access(addr, false, func() {})
	eng.Run(0)
	fmt.Printf("  P0: %-8s P1: %-8s P2: %-8s (T=%d tokens total)\n\n",
		state(0), state(1), state(2), env.Tokens)

	fmt.Println("Race: P2 writes (direct requests broadcast) and P1 writes 5 cycles later.")
	var p1Done, p2Done bool
	var p1At, p2At event.Time
	nodes[2].Access(addr, true, func() { p2Done = true; p2At = eng.Now() })
	eng.After(5, func(event.Time) {
		nodes[1].Access(addr, true, func() { p1Done = true; p1At = eng.Now() })
	})
	eng.Run(0)

	fmt.Printf("  P2 write completed: %v (cycle %d)\n", p2Done, p2At)
	fmt.Printf("  P1 write completed: %v (cycle %d)\n\n", p1Done, p1At)

	timeouts := uint64(0)
	for _, nd := range nodes {
		timeouts += nd.St.TenureTimeouts
	}
	fmt.Printf("Token-tenure probationary timeouts fired: %d\n", timeouts)
	fmt.Printf("Final states: P0: %-8s P1: %-8s P2: %-8s\n", state(0), state(1), state(2))
	fmt.Println("\nBoth racing writers completed: the home activated one request at a")
	fmt.Println("time, untenured tokens timed out back to the home, and the home")
	fmt.Println("redirected them to the active requester — no broadcast, no reissue.")
}
