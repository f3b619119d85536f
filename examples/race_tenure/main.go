// Race walkthrough: reproduces the racing-writers scenario of the
// paper's Figures 1 and 2 on a four-node PATCH system and shows, step
// by step, how token tenure resolves it.
//
// Figure 1 shows that naively adding direct requests to token counting
// starves: P2's direct request takes the owner's tokens while P1's own
// write is being serviced through the home, leaving both waiting for
// tokens that will never arrive. Token tenure (Figure 2) bounds how long
// the stolen tokens may stay untenured: they flow back to the home,
// which redirects them to the active requester, and both writes
// complete.
//
//	go run ./examples/race_tenure
package main

import (
	"fmt"
	"log"

	"patch/internal/event"
	"patch/internal/msg"
	"patch/internal/sim"
)

func main() {
	// A 4-node PATCH-All system, driven by hand rather than by a workload:
	// each access goes through sim's issue path, which counts the stores
	// the end-of-run write-serialisation check compares versions with.
	sys, err := sim.NewSystem(sim.Config{
		Protocol: sim.PATCH, Cores: 4, Variant: sim.VariantAll,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	eng, nodes, env := sys.Eng, sys.Nodes, sys.Env

	// Pick a block homed at node 1, so P1's indirect request reaches the
	// home (its own node) before P2's.
	var addr msg.Addr
	for a := msg.Addr(0x10000); ; a += msg.BlockBytes {
		if env.HomeOf(a) == 1 {
			addr = a
			break
		}
	}
	state := func(who int) string {
		l := nodes[who].Shared().L2.Lookup(addr)
		if l == nil || l.Tok.Zero() {
			return "I t=0"
		}
		s := fmt.Sprintf("%v t=%d", l.Tok.ToMOESI(env.Tokens), l.Tok.Count)
		if l.Untenured {
			s += " (untenured)"
		}
		return s
	}
	states := func() string {
		return fmt.Sprintf("P0: %-8s P1: %-8s P2: %s", state(0), state(1), state(2))
	}

	fmt.Println("Figure 1's initial state: P1 writes, then P0 reads, so ownership and")
	fmt.Println("all but one token move to P0.")
	sys.Issue(1, addr, true, func() {})
	eng.Run(0)
	sys.Issue(0, addr, false, func() {})
	eng.Run(0)
	fmt.Printf("  %s   (T=%d tokens, home = node 1)\n\n", states(), env.Tokens)

	// Start the race after an idle stretch, so neither node is still in
	// the window after its last miss in which it ignores direct requests.
	start := eng.Now() + 2000
	var p1At, p2At event.Time
	eng.At(start, event.Func(func(event.Time) {
		sys.Issue(2, addr, true, func() { p2At = eng.Now() })
	}))
	eng.At(start+5, event.Func(func(event.Time) {
		sys.Issue(1, addr, true, func() { p1At = eng.Now() })
	}))
	fmt.Println("Race: P2 writes, broadcasting direct requests; P1 writes 5 cycles later.")
	timeouts := func() (n uint64) {
		for _, nd := range nodes {
			n += nd.Shared().St.TenureTimeouts
		}
		return n
	}
	home := nodes[1].Home().Entry(addr)
	until := func(what string, cond func() bool) {
		for !cond() {
			if !eng.Step() {
				log.Fatalf("the run ended before %s", what)
			}
		}
		fmt.Printf("  cycle +%d: %s\n", eng.Now()-start, what)
	}
	until("P2's direct request took P0's tokens; they are untenured at P2", func() bool {
		l := nodes[2].Shared().L2.Lookup(addr)
		return l != nil && !l.Tok.Zero() && l.Untenured
	})
	fmt.Printf("    %s\n", states())
	until("P1's request reached the home first, and the home activated it", func() bool {
		return home.Busy && home.Active == 1
	})
	until("P2's request reached the home and waits behind P1's", func() bool {
		return len(home.Queue) > 0
	})
	fmt.Println("    P1 needs every token, but the home forwards its request to P0, which")
	fmt.Println("    has none left, and P2 ignores direct requests while its miss is")
	fmt.Println("    outstanding: without tenure, neither write could ever complete.")
	until("P2's probation expired: its untenured tokens went back to the home", func() bool {
		return timeouts() > 0
	})
	eng.Run(0)

	fmt.Printf("\nToken-tenure probationary timeouts fired: %d\n", timeouts())
	if p1At == 0 || p2At == 0 {
		log.Fatalf("race starved: P1 done at %d, P2 done at %d", p1At, p2At)
	}
	fmt.Printf("  P1 write completed at cycle +%d: the home redirected the returned tokens to it\n", p1At-start)
	fmt.Printf("  P2 write completed at cycle +%d: activated next, it collected every token\n", p2At-start)
	fmt.Printf("Final states: %s\n", states())
	if err := sys.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Invariants hold: token conservation, single writer, every node quiesced.")

	fmt.Println("\nExpected shape: one timeout, P1 finishing before P2, P2 ending in M with")
	fmt.Println("all tokens — the home activated one request at a time, untenured tokens")
	fmt.Println("timed out back to the home, and the home redirected them to the active")
	fmt.Println("requester: no broadcast, no reissue.")
}
