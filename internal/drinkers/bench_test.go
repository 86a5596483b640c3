package drinkers

import (
	"testing"

	"mcdp/internal/graph"
)

// BenchmarkArbiterCycle times one submit → grant → release cycle of the
// arbiter alone, with no substrate to wait for, on the two paths a grant
// can take: a bottle at hand (no meal, no pump), and a bottle that has
// to be collected across its edge inside the home's meal (two homes
// taking turns, so it crosses on every cycle).
func BenchmarkArbiterCycle(b *testing.B) {
	g := graph.Grid(3, 4)
	bottles := []int{g.EdgeIndex(0, 1)}
	b.Run("at-hand", func(b *testing.B) {
		a := NewArbiter(g, 64)
		a.Alive = allAlive
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := a.Submit(0, bottles)
			if err != nil || !a.TryAtHand(s) {
				b.Fatalf("cycle %d: err=%v, not granted at hand", i, err)
			}
			a.Release(s)
		}
	})
	b.Run("across-the-edge", func(b *testing.B) {
		a := NewArbiter(g, 64)
		a.Alive = allAlive
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := a.Submit(graph.ProcID(1-i%2), bottles)
			if err != nil || a.TryAtHand(s) {
				b.Fatalf("cycle %d: err=%v, granted without a meal", i, err)
			}
			if grants := a.Pump(alwaysEating); len(grants) != 1 {
				b.Fatalf("cycle %d: meal granted %d sessions", i, len(grants))
			}
			a.Release(s)
		}
	})
}
