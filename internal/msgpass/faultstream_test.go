package msgpass

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
)

// TestFaultStreamSeededOnFirstUse: a node builds its fault stream only
// when a fault first draws from it, and what it draws is what an eagerly
// seeded rand.New(rand.NewSource(Seed+pid*7919)) draws. Two driven
// networks run one schedule — a malicious window on one node, an
// arbitrary restart of another — one lazily seeded, its twin seeded at
// construction as every node once was; every frame and every node's
// variables must agree at every step, and no node the schedule never
// faults may hold a source.
func TestFaultStreamSeededOnFirstUse(t *testing.T) {
	const seed = 42
	const malicious, restarted = graph.ProcID(4), graph.ProcID(0)
	g := graph.Grid(3, 3)
	cfg := Config{Graph: g, Algorithm: core.NewMCDP(), DiameterOverride: sim.SafeDepthBound(g), Seed: seed}
	clock := func() time.Time { return time.Unix(0, 0) }
	lazy, eager := NewDriven(cfg, clock), NewDriven(cfg, clock)
	for _, nd := range eager.nw.procs.Load().nodes {
		nd.rng = rand.New(rand.NewSource(seed + int64(nd.id)*7919))
	}
	sources := func() (held []graph.ProcID) {
		for _, nd := range lazy.nw.procs.Load().nodes {
			if nd.rng != nil {
				held = append(held, nd.id)
			}
		}
		return held
	}
	type run struct {
		d     *Driven
		queue []Frame
	}
	runs := []*run{{d: lazy}, {d: eager}}
	garbage := 0
	// step applies one driver call to both networks and requires the same
	// frames out of each.
	step := func(what string, call func(d *Driven) []Frame) {
		t.Helper()
		var got [2][]Frame
		for i, r := range runs {
			got[i] = call(r.d)
			r.queue = append(r.queue, got[i]...)
		}
		if a, b := fmt.Sprint(got[0]), fmt.Sprint(got[1]); a != b {
			t.Fatalf("%s: lazily seeded network sent %s, eagerly seeded %s", what, a, b)
		}
		for _, f := range got[0] {
			if f.From == malicious && lazy.Reader().Malicious(malicious) {
				garbage++
			}
		}
	}
	round := func(r int) {
		for p := 0; p < g.N(); p++ {
			step(fmt.Sprintf("round %d tick %d", r, p), func(d *Driven) []Frame { return d.Tick(graph.ProcID(p)) })
		}
		for n := 0; n < 200 && len(runs[0].queue) > 0; n++ {
			step(fmt.Sprintf("round %d delivery %d", r, n), func(d *Driven) []Frame {
				rn := runs[0]
				if d == eager {
					rn = runs[1]
				}
				f := rn.queue[0]
				rn.queue = rn.queue[1:]
				return d.Deliver(f)
			})
		}
		for p := 0; p < g.N(); p++ {
			a, b := lazy.nw.procs.Load().nodes[p], eager.nw.procs.Load().nodes[p]
			if fmt.Sprint(a.state, a.depth, a.dead, a.edges) != fmt.Sprint(b.state, b.depth, b.dead, b.edges) {
				t.Fatalf("round %d: node %d diverged: lazily seeded %v %d %v %+v, eagerly seeded %v %d %v %+v",
					r, p, a.state, a.depth, a.dead, a.edges, b.state, b.depth, b.dead, b.edges)
			}
		}
	}
	step("boot", func(d *Driven) []Frame { return d.Boot() })
	for r := 0; r < 5; r++ {
		round(r)
	}
	if held := sources(); len(held) != 0 {
		t.Fatalf("nodes %v hold a fault source before any fault", held)
	}
	for _, r := range runs {
		r.d.nw.CrashMaliciously(malicious, 3)
	}
	for r := 5; r < 10; r++ {
		round(r)
	}
	if garbage == 0 || !lazy.Reader().Dead(malicious) {
		t.Fatalf("malicious window sent %d garbage frames, dead=%v: the schedule never exercised it", garbage, lazy.Reader().Dead(malicious))
	}
	if held := sources(); fmt.Sprint(held) != fmt.Sprint([]graph.ProcID{malicious}) {
		t.Fatalf("after the malicious window nodes %v hold a fault source, want only %d", held, malicious)
	}
	for _, r := range runs {
		r.d.nw.Restart(restarted, RestartArbitrary)
	}
	for r := 10; r < 15; r++ {
		round(r)
	}
	if inc := lazy.nw.Snapshot(restarted).Incarnation; inc != 1 {
		t.Fatalf("restarted node's incarnation = %d, want 1", inc)
	}
	if held := sources(); fmt.Sprint(held) != fmt.Sprint([]graph.ProcID{restarted, malicious}) {
		t.Fatalf("after the arbitrary restart nodes %v hold a fault source, want %d and %d", held, restarted, malicious)
	}
}
