package lockservice

import (
	"context"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// TestLeaseTTLRule: acquire and renew obey one TTL rule — ttl <= 0 is
// DefaultTTL, anything else is capped at max(MaxTimeout, DefaultTTL) —
// whether the configured default sits above or below MaxTimeout.
func TestLeaseTTLRule(t *testing.T) {
	const maxTimeout = time.Second
	for _, defTTL := range []time.Duration{2 * time.Second, 500 * time.Millisecond} {
		ceiling := max(maxTimeout, defTTL)
		for _, tc := range []struct {
			ttl, want time.Duration
		}{
			{0, defTTL},
			{-1, defTTL},
			{time.Hour, ceiling},
		} {
			cfg := tickless(graph.Grid(2, 2))
			cfg.MaxTimeout, cfg.DefaultTTL = maxTimeout, defTTL
			s := NewServer(cfg)
			var grant LeaseEvent
			s.SetLeaseTap(func(ev LeaseEvent) {
				if ev.Op == ReplOpGrant {
					grant = ev
				}
			})
			s.Start()
			before := time.Now()
			g, err := s.Acquire(context.Background(), []string{"edge:0-1"}, tc.ttl)
			if err != nil {
				t.Fatalf("DefaultTTL %v: acquire(ttl=%v): %v", defTTL, tc.ttl, err)
			}
			if got := grant.Deadline.Sub(before); got < tc.want || got > tc.want+time.Since(before) {
				t.Errorf("DefaultTTL %v: acquire(ttl=%v) leased for %v, want %v", defTTL, tc.ttl, got, tc.want)
			}
			if got, err := s.Renew(g.SessionID, tc.ttl); err != nil || got != tc.want {
				t.Errorf("DefaultTTL %v: renew(ttl=%v) = %v, %v; want %v", defTTL, tc.ttl, got, err, tc.want)
			}
			if err := s.Release(g.SessionID); err != nil {
				t.Fatalf("release: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			s.Stop(ctx)
			cancel()
		}
	}
}
