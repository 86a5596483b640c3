package lockservice

import (
	"context"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
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

// TestRestartGrantsNothingOnTheEndingIncarnation: a session queued at
// worker p behind p's lease becomes grantable the moment Restart(p)
// fences that lease, but p's old incarnation must not back it — the
// reboot lands only at p's next event, and a lease granted before it
// would outlive the incarnation that granted it.
func TestRestartGrantsNothingOnTheEndingIncarnation(t *testing.T) {
	g := graph.Grid(2, 2)
	now := time.Unix(0, 0)
	d := msgpass.NewDriven(msgpass.Config{Graph: g, Algorithm: core.NewMCDP(), Hungry: make([]bool, g.N())}, func() time.Time { return now })
	d.Boot()
	c := NewShardCore(Config{Graph: g}, d.Network())
	keys := []string{"edge:0-1"}
	holder, err := c.Enqueue(keys)
	if err != nil || !c.Serve(holder) {
		t.Fatalf("first session not granted at hand: %v", err)
	}
	lease := c.Grant(holder, keys, 0, now)
	waiter, err := c.Enqueue(keys)
	if err != nil || waiter.Home != holder.Home || c.Serve(waiter) {
		t.Fatalf("second session not queued behind the first at %d (home %d): %v", holder.Home, waiter.Home, err)
	}
	p := holder.Home
	if fenced := c.Restart(p, msgpass.RestartClean); len(fenced) != 1 || fenced[0].ID != lease.ID {
		t.Fatalf("restart fenced %v, want the holder's lease %s", fenced, lease.ID)
	}
	for step := 0; c.Arbiter().Status(waiter) != drinkers.Drinking; step++ {
		if step == 10 {
			t.Fatal("the waiter was never granted after the restart")
		}
		for q := 0; q < g.N(); q++ {
			d.Tick(graph.ProcID(q))
		}
		c.Pump()
	}
	c.Grant(waiter, keys, 0, now)
	for q := 0; q < g.N(); q++ {
		d.Tick(graph.ProcID(q))
	}
	if stale := c.StaleLeases(); len(stale) > 0 {
		t.Fatalf("leases %v were granted on worker %d's ending incarnation", stale, p)
	}
}
