package lockservice

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

func waitCond(t testing.TB, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestLeaveFencesLeasesAndReroutes: leaving a worker revokes the leases
// it granted, and the lock stays serviceable through the edge's other
// endpoint.
func TestLeaveFencesLeasesAndReroutes(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	g1, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// The bottle starts at node 0: the lease was granted at hand, and is
	// fenced like any other.
	if got := s.Arbiter().AtHandGrants(); got != 1 || g1.Node != 0 {
		t.Fatalf("AtHandGrants = %d at node %d, want 1 at node 0", got, g1.Node)
	}
	fenced, err := s.LeaveNode(g1.Node)
	if err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	if fenced != 1 {
		t.Fatalf("leave fenced %d leases, want 1", fenced)
	}
	if err := s.Release(g1.SessionID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of fenced lease: err = %v, want ErrNotFound", err)
	}
	if !s.Departed(g1.Node) {
		t.Fatal("leaver not marked departed")
	}
	if _, err := s.LeaveNode(g1.Node); !errors.Is(err, ErrDeparted) {
		t.Fatalf("double leave: err = %v, want ErrDeparted", err)
	}
	// The other endpoint of edge 0-1 must pick up arbitration.
	g2, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatalf("acquire after leave: %v", err)
	}
	if g2.Node == g1.Node {
		t.Fatalf("departed node %d granted a session", g2.Node)
	}
	// The bottle still sits at the departed worker, and nobody is left
	// there to surrender it: this grant took worker 1 a dining round.
	if got := s.Arbiter().AtHandGrants(); got != 1 {
		t.Fatalf("AtHandGrants = %d after the reroute, want 1: a bottle at a departed peer was granted without a meal", got)
	}
	s.Release(g2.SessionID)
}

// TestRestartRefusedOnDepartedNode: the restart path (admin and
// supervisor both go through RestartNode) must not resurrect a retired
// identity.
func TestRestartRefusedOnDepartedNode(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	if _, err := s.LeaveNode(3); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	if _, err := s.RestartNode(3, msgpass.RestartClean); !errors.Is(err, ErrDeparted) {
		t.Fatalf("RestartNode on departed: err = %v, want ErrDeparted", err)
	}
	if err := s.JoinNode(3); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if s.Departed(3) {
		t.Fatal("join did not clear departure")
	}
	if err := s.JoinNode(3); err == nil {
		t.Fatal("join of a present node accepted")
	}
	waitCond(t, 5*time.Second, "rejoined node to revive", func() bool {
		return !s.Network().Snapshot(3).Dead
	})
}

// TestSupervisorDoesNotReviveDepartedNode pins the leave/supervisor
// race: a node that leaves while the supervisor's restart backoff timer
// for it is still pending must stay down. The supervisor checks
// departure before the backoff gate, so the pending attempt is
// abandoned rather than fired.
func TestSupervisorDoesNotReviveDepartedNode(t *testing.T) {
	cfg := fastConfig(graph.Grid(2, 2))
	cfg.Supervise = &SupervisorConfig{
		CheckEvery:  5 * time.Millisecond,
		BackoffBase: 400 * time.Millisecond,
	}
	s := startServer(t, cfg)
	m := s.Metrics()

	// First kill: the supervisor revives it and arms a 400ms backoff
	// window for node 0.
	if err := s.InjectCrash(0, 0); err != nil {
		t.Fatalf("InjectCrash: %v", err)
	}
	waitCond(t, 5*time.Second, "supervisor's first restart", func() bool {
		return m.NodeRestarts.Load() >= 1
	})
	// Second kill lands inside that window, so a restart attempt is now
	// pending on the backoff timer — and then the node leaves.
	s.InjectCrash(0, 0)
	if _, err := s.LeaveNode(0); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	restartsAtLeave := m.NodeRestarts.Load()

	// Outlast the backoff window with margin: the timer must never fire.
	time.Sleep(time.Second)
	if got := m.NodeRestarts.Load(); got != restartsAtLeave {
		t.Fatalf("supervisor restarted a departed node: restarts %d -> %d", restartsAtLeave, got)
	}
	if !s.Network().Snapshot(0).Dead || !s.Departed(0) {
		t.Fatal("departed node came back to life")
	}
	if got := m.NodeLeaves.Load(); got != 1 {
		t.Fatalf("NodeLeaves = %d, want 1", got)
	}

	// JoinNode remains the one readmission path, supervisor or not.
	if err := s.JoinNode(0); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	waitCond(t, 5*time.Second, "joined node to revive", func() bool {
		return !s.Network().Snapshot(0).Dead
	})
	if got := m.NodeJoins.Load(); got != 1 {
		t.Fatalf("NodeJoins = %d, want 1", got)
	}
}
