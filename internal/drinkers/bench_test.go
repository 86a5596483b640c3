package drinkers

import (
	"testing"

	"mcdp/internal/graph"
)

// BenchmarkArbiterCycle times one submit → grant → release cycle of the
// arbiter alone, with no substrate to wait for, on the three paths a
// grant can take: a bottle at its home (no meal, no pump), a bottle
// surrendered across its edge (two homes taking turns with nobody queued
// at the other, so it crosses on every cycle, still with no meal), and a
// bottle that sessions at both ends ask for, which only the home's meal
// may collect.
func BenchmarkArbiterCycle(b *testing.B) {
	g := graph.Grid(3, 4)
	bottles := []int{g.EdgeIndex(0, 1)}
	lone := func(b *testing.B, home func(i int) graph.ProcID, wantCrossings bool) {
		a := NewArbiter(g, 64)
		a.Alive = allAlive
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := a.Submit(home(i), bottles)
			if err != nil || !a.TryAtHand(s) {
				b.Fatalf("cycle %d: err=%v, not granted at hand", i, err)
			}
			a.Release(s)
		}
		if got := a.SurrenderedGrants(); (got == int64(b.N)) != wantCrossings {
			b.Fatalf("%d of %d grants had the bottle surrendered, want all=%v", got, b.N, wantCrossings)
		}
	}
	b.Run("at-hand", func(b *testing.B) {
		lone(b, func(int) graph.ProcID { return 0 }, false)
	})
	b.Run("surrendered", func(b *testing.B) {
		lone(b, func(i int) graph.ProcID { return graph.ProcID(1 - i%2) }, true)
	})
	b.Run("meal", func(b *testing.B) {
		a := NewArbiter(g, 64)
		a.Alive = allAlive
		rival, err := a.Submit(1, bottles)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The rival queued across the edge keeps the bottle contended;
			// each cycle the two ends swap roles.
			s, err := a.Submit(graph.ProcID(i%2), bottles)
			if err != nil || a.TryAtHand(s) {
				b.Fatalf("cycle %d: err=%v, granted without a meal past a session queued across the edge", i, err)
			}
			if grants := a.Pump(func(p graph.ProcID) bool { return p == rival.Home }); len(grants) != 1 || grants[0] != rival {
				b.Fatalf("cycle %d: meal granted %v, want the session queued first", i, grants)
			}
			a.Release(rival)
			rival = s
		}
		if a.AtHandGrants() != 0 {
			b.Fatalf("%d grants skipped the meal", a.AtHandGrants())
		}
	})
}
