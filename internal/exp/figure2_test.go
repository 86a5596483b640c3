package exp

import (
	"testing"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/spec"
)

func TestFigure2GraphShape(t *testing.T) {
	t.Parallel()
	g := Figure2Graph()
	if g.N() != 7 {
		t.Fatalf("Figure 2 graph has %d vertices, want 7", g.N())
	}
	if g.Diameter() != 3 {
		t.Fatalf("Figure 2 graph diameter = %d; the paper states 3", g.Diameter())
	}
	if !g.Connected() {
		t.Fatal("Figure 2 graph must be connected")
	}
}

func TestFigure2InitialClassification(t *testing.T) {
	t.Parallel()
	// In the first depicted state: a (dead), b, c are red; d is red too
	// once it has left... initially d is HUNGRY with a red-hungry
	// ancestor b — by RD's hungry rule d needs ancestors red AND
	// thinking, so hungry d is green (leave is its way out); e, f, g are
	// green.
	w := Figure2World(1)
	red := spec.RedProcs(w)
	wantRed := map[int]bool{0: true, 1: true, 2: true}
	for p, isRed := range red {
		if isRed != wantRed[p] {
			t.Errorf("process %s red=%v, want %v", Figure2Name(graph.ProcID(p)), isRed, wantRed[p])
		}
	}
}

func TestFigure2Storyline(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		out := RunFigure2(seed, 20000)
		if !out.Holds() {
			t.Errorf("seed %d: figure 2 storyline failed: %+v", seed, out)
		}
		// On the recorded seeds the replay matches the figure exactly:
		// g itself detects the cycle through its depth overflow.
		if !out.GBrokeCycle {
			t.Errorf("seed %d: g did not break the cycle as depicted: %+v", seed, out)
		}
	}
}

func TestFigure2StorylineManySeeds(t *testing.T) {
	t.Parallel()
	// Over a wide seed sweep the unconditional storyline always holds,
	// whichever way the daemon lets the cycle dissolve.
	for seed := int64(1); seed <= 200; seed++ {
		out := RunFigure2(seed, 20000)
		if !out.Holds() {
			t.Errorf("seed %d: storyline failed: %+v", seed, out)
		}
	}
}

func TestFigure2LocalityBoundary(t *testing.T) {
	t.Parallel()
	// d sits at distance 2 from the crashed a and must never be stuck in
	// Hungry at the end (the dynamic threshold parks it Thinking); e at
	// distance 3 eats.
	w := Figure2World(3)
	w.Run(20000)
	const d = 3
	if w.State(d) == core.Eating {
		t.Error("d must not be eating while b blocks it")
	}
	red := spec.RedProcs(w)
	radius, _ := spec.RedRadius(w)
	if radius > 2 {
		t.Errorf("red radius = %d, want <= 2 (red set %v)", radius, red)
	}
}
