package lockservice

import (
	"context"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// BenchmarkServerAcquire times one in-process Acquire → Release on a
// started server (no router, no wire), on the two paths a grant can
// take: a lone client on one lock, granted at hand on its own goroutine,
// and two overlapping two-lock sets homed at the two ends of a shared
// edge taking turns, so every grant waits for a dining round to carry
// the shared bottle across.
func BenchmarkServerAcquire(b *testing.B) {
	run := func(b *testing.B, wantAtHand bool, sets ...[]string) {
		s := NewServer(fastConfig(graph.Grid(2, 2)))
		s.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			s.Stop(ctx)
		}()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := s.Acquire(ctx, sets[i%len(sets)], 0)
			if err != nil {
				b.Fatalf("acquire %d: %v", i, err)
			}
			if err := s.Release(g.SessionID); err != nil {
				b.Fatalf("release %d: %v", i, err)
			}
		}
		b.StopTimer()
		if atHand := s.Arbiter().AtHandGrants(); (atHand == int64(b.N)) != wantAtHand {
			b.Fatalf("%d of %d grants at hand, want all=%v", atHand, b.N, wantAtHand)
		}
	}
	b.Run("at-hand", func(b *testing.B) { run(b, true, []string{"edge:0-1"}) })
	b.Run("meal", func(b *testing.B) {
		run(b, false, []string{"edge:0-1", "edge:1-3"}, []string{"edge:0-1", "edge:0-2"})
	})
}
