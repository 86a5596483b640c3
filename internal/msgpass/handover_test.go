package msgpass

import (
	"math/rand"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// drain delivers pending frames in send order (one global FIFO, hence
// FIFO per channel) until the network is quiet, with no ticks at all. It
// returns the number of deliveries and calls visit after each one.
func drain(t testing.TB, d *Driven, pending []Frame, visit func(f Frame, out []Frame)) int {
	t.Helper()
	n := 0
	for len(pending) > 0 {
		f := pending[0]
		pending = pending[1:]
		out := d.Deliver(f)
		n++
		if visit != nil {
			visit(f, out)
		}
		pending = append(pending, out...)
		if n > 10000 {
			t.Fatalf("frames still in flight after %d tick-free deliveries: a storm", n)
		}
	}
	return n
}

// idleDriven boots a driven network in which nobody wants to eat and
// delivers the boot gossip.
func idleDriven(t testing.TB, g *graph.Graph) *Driven {
	cfg := drivenConfig(g)
	cfg.Hungry = make([]bool, g.N())
	d := NewDriven(cfg, nil)
	drain(t, d, d.Boot(), nil)
	return d
}

// TestHandoverNeedsNoTick: on an idle grid a worker that turns hungry
// reaches Eating on frame deliveries alone — its own tick announces the
// hunger, every neighbor answers the frame that told it, and no neighbor
// ever ticks. Before handovers were event-driven each token waited for
// its holder's next tick.
func TestHandoverNeedsNoTick(t *testing.T) {
	g := graph.Grid(3, 3)
	for p := 0; p < g.N(); p++ {
		pid := graph.ProcID(p)
		d := idleDriven(t, g)
		rd := d.Reader()
		d.Network().SetNeeds(pid, true)
		ate := false
		deliveries := drain(t, d, d.Tick(pid), func(Frame, []Frame) {
			ate = ate || rd.State(pid) == core.Eating
		})
		if !ate {
			t.Errorf("node %d: not Eating after %d deliveries and no further tick (state %v)",
				p, deliveries, rd.State(pid))
		}
		// Hunger out, tokens back: two frames per edge at most.
		if max := 2 * g.Degree(pid); deliveries > max {
			t.Errorf("node %d: %d deliveries for one uncontended meal, want <= %d", p, deliveries, max)
		}
	}
}

// TestHungryToEatingDoesNotWaitForTick is the wall-clock form: with a
// one-second gossip period an idle worker still eats within milliseconds
// of SetNeeds+Wake, because nothing on the path reads a clock.
func TestHungryToEatingDoesNotWaitForTick(t *testing.T) {
	g := graph.Grid(3, 3)
	const p = graph.ProcID(4) // center: two tokens to fetch, two already held
	eating := make(chan struct{}, 1)
	nw := NewNetwork(Config{
		Graph:     g,
		Algorithm: core.NewMCDP(),
		Hungry:    make([]bool, g.N()),
		TickEvery: time.Second,
		Seed:      1,
		OnSnapshot: func(q graph.ProcID, s Snapshot) {
			if q == p && s.State == core.Eating {
				select {
				case eating <- struct{}{}:
				default:
				}
			}
		},
	})
	nw.Start()
	defer nw.Stop()
	time.Sleep(20 * time.Millisecond) // boot gossip lands
	start := time.Now()
	nw.SetNeeds(p, true)
	nw.Wake(p)
	select {
	case <-eating:
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("hungry -> eating took %v with a 1s tick, want < 50ms", took)
		}
	case <-time.After(900 * time.Millisecond):
		t.Fatal("not eating before the first tick: the handover waited for the ticker")
	}
}

// TestDeliverEmitsAtMostDegreeFrames bounds the amplification of one
// frame: whatever a delivery triggers — a handover, a state-change
// gossip, a malicious node's garbage — it emits at most one frame per
// incident edge. Random schedules over an all-hungry grid with a 20-step
// malicious window in the middle.
func TestDeliverEmitsAtMostDegreeFrames(t *testing.T) {
	g := graph.Grid(3, 3)
	for seed := int64(1); seed <= 5; seed++ {
		cfg := drivenConfig(g)
		cfg.Seed = seed
		d := NewDriven(cfg, nil)
		rng := rand.New(rand.NewSource(seed))
		pending := d.Boot()
		for step := 0; step < 4000; step++ {
			if step == 1000 {
				d.Network().CrashMaliciously(4, 20)
			}
			if k := rng.Intn(g.N() + len(pending)); k < g.N() {
				pending = append(pending, d.Tick(graph.ProcID(k))...)
				continue
			}
			// Deliver the oldest frame of a random channel (FIFO per channel).
			j := rng.Intn(len(pending))
			for i := 0; i < j; i++ {
				if pending[i].From == pending[j].From && pending[i].To == pending[j].To {
					j = i
					break
				}
			}
			f := pending[j]
			pending = append(pending[:j], pending[j+1:]...)
			out := d.Deliver(f)
			if len(out) > g.Degree(f.To) {
				t.Fatalf("seed %d step %d: delivering %v made node %d emit %d frames, degree %d",
					seed, step, f, f.To, len(out), g.Degree(f.To))
			}
			perEdge := map[graph.ProcID]int{}
			for _, o := range out {
				if perEdge[o.To]++; perEdge[o.To] > 1 {
					t.Fatalf("seed %d step %d: two frames to %d from one delivery", seed, step, o.To)
				}
			}
			pending = append(pending, out...)
		}
	}
}

// TestStaleHungryBeliefsDoNotBounce: two Thinking endpoints that each
// wrongly believe the other Hungry hand the token over at most once —
// the frame that carries it also carries the truth (Thinking), so the
// receiver has no one to grant to and the exchange dies. A reply-to-
// every-frame rule would bounce the token at channel speed forever.
func TestStaleHungryBeliefsDoNotBounce(t *testing.T) {
	for _, first := range []graph.ProcID{0, 1} {
		d := idleDriven(t, graph.Path(2))
		for _, nd := range d.nw.procs.Load().nodes {
			nd.edges[0].peerState = core.Hungry
		}
		frames := d.Tick(first)
		replies := drain(t, d, frames, nil) - len(frames)
		if replies > 1 {
			t.Errorf("tick at %d: %d reply frames between two Thinking nodes, want at most one round trip", first, replies)
		}
		for _, nd := range d.nw.procs.Load().nodes {
			if nd.state != core.Thinking {
				t.Errorf("tick at %d: node %d left Thinking (%v)", first, nd.id, nd.state)
			}
		}
	}
}

// TestNodeThatJustAteAnswersOnItsTick pins the post-meal linger on the
// path 0-1: node 1 eats; for a full tick period afterwards it leaves node
// 0's request to its tick gossip, which is what keeps a loaded
// neighborhood on the tick's clock; once a period has passed without a
// meal it answers the frame that asks again.
func TestNodeThatJustAteAnswersOnItsTick(t *testing.T) {
	d := idleDriven(t, graph.Path(2))
	nw, rd := d.Network(), d.Reader()
	meal := func(p graph.ProcID) {
		t.Helper()
		nw.SetNeeds(p, true)
		drain(t, d, d.Tick(p), nil)
		if rd.State(p) != core.Eating {
			t.Fatalf("node %d: an idle neighbor did not hand the token over (state %v)", p, rd.State(p))
		}
		nw.SetNeeds(p, false)
		for i := 0; rd.State(p) != core.Thinking; i++ {
			if i > 10 {
				t.Fatalf("node %d never left Eating", p)
			}
			drain(t, d, d.Tick(p), nil)
		}
	}
	meal(1) // node 1 now holds the token and has just eaten

	nw.SetNeeds(0, true)
	ask := d.Tick(0)
	if len(ask) != 1 {
		t.Fatalf("node 0's tick emitted %d frames, want its one gossip", len(ask))
	}
	if out := d.Deliver(ask[0]); len(out) != 0 {
		t.Fatalf("node 1 answered %d frame(s) between ticks right after its meal", len(out))
	}
	if rd.State(0) == core.Eating {
		t.Fatal("node 0 eats without node 1's token")
	}
	drain(t, d, d.Tick(1), nil) // the tick gossip carries the handover
	if rd.State(0) != core.Eating {
		t.Fatalf("node 1's tick did not hand the token over (node 0 is %v)", rd.State(0))
	}
	nw.SetNeeds(0, false)
	for i := 0; rd.State(0) != core.Thinking; i++ {
		if i > 10 {
			t.Fatal("node 0 never left Eating")
		}
		drain(t, d, d.Tick(0), nil)
	}

	// Node 0 holds the token and lingers; a full period later it does not.
	for i := 0; i < lingerTicks; i++ {
		drain(t, d, d.Tick(0), nil)
	}
	meal(1)
}

// TestDeadTokenHolderDoesNotPoisonDepth reproduces the tier-1 wedge
// deterministically on the path 0-1-2. Node 2 is dead, holds the token
// of edge (1,2) and froze at a garbage depth > D; node 1 believes itself
// that edge's ancestor, so the corpse is its descendant. Node 1 also
// holds the token of edge (0,1) while node 0 has the priority there. Only
// node 0 wants to eat.
//
// exit's yield towards 2 can only be buffered — no token, and none will
// ever come — so before the fix every event at node 1 re-ran fixdepth →
// exit against the frozen depth and ended at depth garbage+1 > D,
// gossiped forever. Node 0, with 1 as its descendant, inherited it; its
// own exit's yield towards 1 was buffered too (1 holds that token), so 0
// fell into the same loop, ended every event Thinking, never announced
// hunger, and so never got the token that would have landed the yield:
// starved at distance 2 from the corpse, and ready to infect its own
// ancestors. An edge with a yield pending now contributes no depth, so
// both loops stop after one exit.
func TestDeadTokenHolderDoesNotPoisonDepth(t *testing.T) {
	g := graph.Path(3)
	cfg := drivenConfig(g)
	cfg.Hungry = []bool{true, false, false}
	d := NewDriven(cfg, nil)
	nodes := d.nw.procs.Load().nodes
	D := nodes[1].d
	// Edge (1,2): token at 2, priority 1, corpse frozen at depth D+3.
	nodes[1].edgeTo(2).peerCounter, nodes[2].edgeTo(1).counter = 1, 1
	nodes[1].edgeTo(2).peerDepth, nodes[2].depth = D+3, D+3
	// Edge (0,1): token at 1, priority 0, and 0 has already heard the
	// depth node 1 derives from the corpse.
	nodes[0].edgeTo(1).counter, nodes[1].edgeTo(0).peerCounter = 1, 1
	nodes[0].edgeTo(1).peerDepth = D + 4
	if !nodes[2].edgeTo(1).holds() || !nodes[1].edgeTo(0).holds() ||
		nodes[1].edgeTo(2).priority != 1 || nodes[0].edgeTo(1).priority != 0 {
		t.Fatal("setup: want tokens at 2 and 1, priorities at 1 and 0")
	}
	d.Network().Kill(2)
	d.Tick(2) // the kill is polled: node 2 never speaks

	pending := d.Boot()
	gossiped := 0 // deepest depth node 1 gossips once the run has settled
	for round := 0; round < 60; round++ {
		for p := 0; p < g.N(); p++ {
			out := d.Tick(graph.ProcID(p))
			if p == 1 && round >= 20 {
				for _, f := range out {
					if f.m.depth > gossiped {
						gossiped = f.m.depth
					}
				}
			}
			pending = append(pending, out...)
		}
		window := pending
		pending = nil
		for _, f := range window {
			pending = append(pending, d.Deliver(f)...)
		}
	}
	if gossiped > D {
		t.Errorf("node 1 gossips depth %d > D=%d next to the dead token holder", gossiped, D)
	}
	if got := d.Reader().Depth(0); got > D {
		t.Errorf("node 0 inherited depth %d > D=%d at distance 2 from the corpse", got, D)
	}
	if eats := d.Network().Eats(); eats[0] < 5 {
		t.Errorf("node 0 (distance 2 from the corpse) completed %d meals in 60 rounds, want >= 5", eats[0])
	}
}
