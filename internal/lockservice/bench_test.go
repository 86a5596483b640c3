package lockservice

import (
	"context"
	"sync"
	"testing"

	"mcdp/internal/graph"
)

// BenchmarkServerAcquire times one in-process Acquire → Release on a
// started server (no router, no wire), on the three paths a grant can
// take: a lone client on one lock, granted at hand on its own goroutine;
// a lone client asking at alternating ends of one idle edge, so the
// shared bottle is surrendered across it on every grant, still without a
// meal (a network that never ticks proves it); and a client whose lock
// sets are asked for at both ends of the shared edge all the time, so
// every grant waits for a dining round — the tick-paced number.
func BenchmarkServerAcquire(b *testing.B) {
	cycle := func(b *testing.B, s *Server, i int, sets [][]string) {
		g, err := s.Acquire(context.Background(), sets[i%len(sets)], 0)
		if err != nil {
			b.Fatalf("acquire %d: %v", i, err)
		}
		if err := s.Release(g.SessionID); err != nil {
			b.Fatalf("release %d: %v", i, err)
		}
	}
	lone := func(b *testing.B, wantSurrendered bool, sets ...[]string) {
		s := startServer(b, tickless(graph.Grid(2, 2)))
		sent := awaitBootGossip(b, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, s, i, sets)
		}
		b.StopTimer()
		n := int64(b.N)
		if atHand := s.Arbiter().AtHandGrants(); atHand != n {
			b.Fatalf("%d of %d grants at hand, want all", atHand, n)
		}
		if moved := s.Arbiter().SurrenderedGrants(); (moved == n-1) != wantSurrendered && n > 1 {
			b.Fatalf("%d of %d grants had a bottle surrendered, want all but the first = %v", moved, n, wantSurrendered)
		}
		assertUndisturbed(b, s, sent)
	}
	b.Run("at-hand", func(b *testing.B) { lone(b, false, edgeEnds[0][:1]) })
	b.Run("surrender", func(b *testing.B) { lone(b, true, edgeEnds...) })
	b.Run("meal", func(b *testing.B) {
		// Two clients at each end of the shared edge: whichever session
		// drinks, another is queued behind it and two across the edge, so
		// both ends ask for the shared bottle at every instant and no grant
		// can skip the meal. One of the four is timed.
		s := startServer(b, fastConfig(graph.Grid(2, 2)))
		stop := make(chan struct{})
		var rivals sync.WaitGroup
		for _, sets := range [][][]string{edgeEnds[:1], edgeEnds[1:], edgeEnds[1:]} {
			rivals.Add(1)
			go func() {
				defer rivals.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						cycle(b, s, i, sets)
					}
				}
			}()
		}
		dined := func() int64 { return s.Metrics().Grants.Load() - s.Arbiter().AtHandGrants() }
		for i := 0; dined() < 8; i++ { // until all four clients are in the rotation
			cycle(b, s, i, edgeEnds[:1])
		}
		grants, atHand := s.Metrics().Grants.Load(), s.Arbiter().AtHandGrants()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, s, i, edgeEnds[:1])
		}
		b.StopTimer()
		grants, atHand = s.Metrics().Grants.Load()-grants, s.Arbiter().AtHandGrants()-atHand
		close(stop)
		rivals.Wait()
		if dined := grants - atHand; dined < int64(b.N) || dined <= atHand {
			b.Fatalf("%d of %d grants in the timed window dined (%d timed): meal-backed grants must dominate", dined, grants, b.N)
		}
		b.ReportMetric(float64(grants-atHand)/float64(grants), "dined/grant")
	})
}
