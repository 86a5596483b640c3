package msgpass

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// allPairsOverlaps is the definition overlaps implements: every pair of
// sessions, in index order, by distinct adjacent processes, neither
// exempt, whose intervals overlap.
func allPairsOverlaps(sessions []EatSession, adjacent func(a, b graph.ProcID) bool) []string {
	var bad []string
	for i, a := range sessions {
		for _, b := range sessions[i+1:] {
			if a.Proc == b.Proc || a.PostGarbage || b.PostGarbage || !adjacent(a.Proc, b.Proc) {
				continue
			}
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				bad = append(bad, fmt.Sprintf("%d@[%v,%v] overlaps %d@[%v,%v]",
					a.Proc, a.Start, a.End, b.Proc, b.Start, b.End))
			}
		}
	}
	return bad
}

// TestOverlapsMatchesAllPairs: the per-edge sweep finds exactly the
// pairs the all-pairs definition finds, in the same order, on random
// session sets dense in ties — shared instants, empty sessions, one
// process's sessions overlapping each other, exempt sessions — over
// random graphs.
func TestOverlapsMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(0, 0).UTC()
	found := 0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(6)
		var edges []graph.Edge
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, graph.EdgeBetween(graph.ProcID(a), graph.ProcID(b)))
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		sessions := make([]EatSession, rng.Intn(30))
		for i := range sessions {
			start := rng.Intn(20)
			sessions[i] = EatSession{
				Proc:        graph.ProcID(rng.Intn(n)),
				Start:       base.Add(time.Duration(start) * time.Second),
				End:         base.Add(time.Duration(start+rng.Intn(5)) * time.Second),
				PostGarbage: rng.Intn(8) == 0,
			}
		}
		adjacent := func(a, b graph.ProcID) bool { return slices.Contains(edges, graph.EdgeBetween(a, b)) }
		want, got := allPairsOverlaps(sessions, adjacent), overlaps(sessions, edges)
		if !slices.Equal(want, got) {
			t.Fatalf("trial %d: all pairs find %q, the sweep %q", trial, want, got)
		}
		found += len(want)
	}
	if found < 1000 {
		t.Fatalf("only %d overlaps over every trial: the sessions are too sparse to test anything", found)
	}
}
