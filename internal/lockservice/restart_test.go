package lockservice

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// TestRestartNodeFencesLeases: restarting a worker revokes every lease
// it granted — the client's later Release sees ErrNotFound, the fencing
// counters move, and the freed locks are acquirable again.
func TestRestartNodeFencesLeases(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// This two-bottle set has node 0 as its only candidate home, so the
	// lease is necessarily homed at the restart victim.
	res := []string{"edge:0-1", "edge:0-2"}
	g1, err := s.Acquire(ctx, res, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if g1.Node != 0 {
		t.Fatalf("lease homed at %d, want 0", g1.Node)
	}
	// Both bottles start at node 0: the lease was granted at hand, and is
	// fenced like any other.
	if got := s.Arbiter().AtHandGrants(); got != 1 {
		t.Fatalf("AtHandGrants = %d, want 1", got)
	}

	fenced, err := s.RestartNode(0, msgpass.RestartClean)
	if err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if fenced != 1 {
		t.Fatalf("fenced %d leases, want 1", fenced)
	}
	if err := s.Release(g1.SessionID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of fenced lease: err = %v, want ErrNotFound", err)
	}
	if got := s.Metrics().LeasesFenced.Load(); got != 1 {
		t.Fatalf("LeasesFenced = %d, want 1", got)
	}
	if got := s.Metrics().NodeRestarts.Load(); got != 1 {
		t.Fatalf("NodeRestarts = %d, want 1", got)
	}

	// Fencing released the bottles: the same set is grantable again once
	// the revived node converges.
	g2, err := s.Acquire(ctx, res, 0)
	if err != nil {
		t.Fatalf("reacquire after fencing restart: %v", err)
	}
	if err := s.Release(g2.SessionID); err != nil {
		t.Fatal(err)
	}

	if _, err := s.RestartNode(99, msgpass.RestartClean); err == nil {
		t.Fatal("RestartNode(99) succeeded, want out-of-range error")
	}
}

// TestSupervisorRevivesCrashedNode: with Supervise configured, a killed
// worker comes back without any admin call and serves grants again.
func TestSupervisorRevivesCrashedNode(t *testing.T) {
	cfg := fastConfig(graph.Grid(2, 2))
	cfg.Supervise = &SupervisorConfig{
		CheckEvery:  5 * time.Millisecond,
		BackoffBase: 20 * time.Millisecond,
	}
	s := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const victim = graph.ProcID(0)
	if err := s.InjectCrash(victim, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ctx, 5*time.Second, "supervisor to revive the victim", func() (bool, string) {
		snap := s.Network().Snapshot(victim)
		return !snap.Dead && snap.Incarnation > 0, snap.State.String()
	})
	if got := s.Metrics().NodeRestarts.Load(); got < 1 {
		t.Fatalf("NodeRestarts = %d, want >= 1", got)
	}

	// The revived node must arbitrate again: this set is homed at the
	// victim only.
	g1, err := s.Acquire(ctx, []string{"edge:0-1", "edge:0-2"}, 0)
	if err != nil {
		t.Fatalf("acquire homed at revived node: %v", err)
	}
	if err := s.Release(g1.SessionID); err != nil {
		t.Fatal(err)
	}
}

// TestClientBackoffJitterBounds: each retry delay lands in [d/2, d] for
// the capped exponential window d, and draws actually vary — the
// schedule is jittered, not a fixed ladder.
func TestClientBackoffJitterBounds(t *testing.T) {
	c := &Client{Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	c.jitter.Store(12345) // pin the stream so the test is reproducible
	for attempt := 0; attempt < 6; attempt++ {
		d := c.Backoff << uint(attempt)
		if d > c.MaxBackoff {
			d = c.MaxBackoff
		}
		distinct := map[time.Duration]bool{}
		for i := 0; i < 64; i++ {
			got := c.backoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
			}
			distinct[got] = true
		}
		if len(distinct) < 8 {
			t.Fatalf("attempt %d: only %d distinct delays in 64 draws; jitter missing", attempt, len(distinct))
		}
	}
}

// TestClientBackoffLazySeed: an unseeded client still jitters (the
// state self-seeds on first use) and stays within bounds.
func TestClientBackoffLazySeed(t *testing.T) {
	c := &Client{Backoff: 80 * time.Millisecond, MaxBackoff: time.Second}
	got := c.backoff(0)
	if got < 40*time.Millisecond || got > 80*time.Millisecond {
		t.Fatalf("backoff(0) = %v, want within [40ms, 80ms]", got)
	}
	if c.jitter.Load() == 0 {
		t.Fatal("jitter state not seeded after first use")
	}
}
