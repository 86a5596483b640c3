package lockservice

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// tickless returns a config whose substrate never ticks inside a test:
// past the boot gossip, any frame sent or meal eaten was caused by a
// request.
func tickless(g *graph.Graph) Config {
	cfg := fastConfig(g)
	cfg.TickEvery = time.Hour
	return cfg
}

// awaitBootGossip waits until every worker has announced itself on each
// of its edges — the 2·|E| frames a network sends unprompted — and
// returns the frame count.
func awaitBootGossip(t testing.TB, s *Server) int64 {
	t.Helper()
	boot := int64(2 * s.Graph().EdgeCount())
	waitCond(t, 5*time.Second, "boot gossip", func() bool { return s.Network().MessagesSent() >= boot })
	return s.Network().MessagesSent()
}

// TestLoneAcquireLoopSkipsTheDiningRound: a client alone on a lock whose
// bottle sits at its home is served without the substrate noticing — no
// worker turns hungry, no meal is eaten, no frame is sent — and every
// grant is counted at hand.
func TestLoneAcquireLoopSkipsTheDiningRound(t *testing.T) {
	s := startServer(t, tickless(graph.Grid(2, 2)))
	sent := awaitBootGossip(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const loops = 200
	for i := 0; i < loops; i++ {
		g, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if err := s.Release(g.SessionID); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if got := s.Arbiter().AtHandGrants(); got != loops {
		t.Errorf("AtHandGrants = %d, want %d", got, loops)
	}
	if got := s.Arbiter().SurrenderedGrants(); got != 0 {
		t.Errorf("SurrenderedGrants = %d for a bottle that never left its home", got)
	}
	assertUndisturbed(t, s, sent)
}

// edgeEnds are two lock sets that share "edge:0-1" and are homed at its
// two ends on grid(2,2): worker 0 is the only common endpoint of the
// first, worker 1 of the second.
var edgeEnds = [][]string{{"edge:0-1", "edge:0-2"}, {"edge:0-1", "edge:1-3"}}

// assertUndisturbed fails unless no worker has eaten or is hungry and no
// frame was sent since the count taken after the boot gossip.
func assertUndisturbed(t testing.TB, s *Server, sent int64) {
	t.Helper()
	for p, eats := range s.Network().Eats() {
		if eats != 0 || s.Network().Needs(graph.ProcID(p)) {
			t.Errorf("worker %d: %d meals, hungry=%v; want an undisturbed substrate", p, eats, s.Network().Needs(graph.ProcID(p)))
		}
	}
	if got := s.Network().MessagesSent(); got != sent {
		t.Errorf("MessagesSent went %d -> %d", sent, got)
	}
}

// TestAlternatingEndsOfAnIdleEdgeSkipTheDiningRound: a client alone on an
// edge, asking at one end and then at the other, has the shared bottle
// surrendered to it each time — the worker across the edge is alive and
// has no session for it — so on a network that never ticks every grant
// still arrives, no worker turns hungry or eats, and no frame is sent.
func TestAlternatingEndsOfAnIdleEdgeSkipTheDiningRound(t *testing.T) {
	s := startServer(t, tickless(graph.Grid(2, 2)))
	sent := awaitBootGossip(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const loops = 200
	b01 := s.Graph().EdgeIndex(0, 1)
	for i := 0; i < loops; i++ {
		g, err := s.Acquire(ctx, edgeEnds[i%2], 0)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if want := graph.ProcID(i % 2); g.Node != want || s.Arbiter().Holder(b01) != want {
			t.Fatalf("acquire %d granted at worker %d with the shared bottle at %d, want both %d", i, g.Node, s.Arbiter().Holder(b01), want)
		}
		if err := s.Release(g.SessionID); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if got := s.Arbiter().AtHandGrants(); got != loops {
		t.Errorf("AtHandGrants = %d, want %d", got, loops)
	}
	if got := s.Arbiter().SurrenderedGrants(); got != loops-1 {
		t.Errorf("SurrenderedGrants = %d, want %d (every grant but the first)", got, loops-1)
	}
	assertUndisturbed(t, s, sent)
}

// TestBottleAtDeadPeerIsNotSurrendered: a dead worker surrenders nothing.
// The lock stays serviceable through the edge's live end, but only by
// that worker's dining round — and as the dead worker's neighbor it may
// wait for one until the budget runs out, which is the paper's locality,
// not a fault of the rule.
func TestBottleAtDeadPeerIsNotSurrendered(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	if err := s.InjectCrash(0, 0); err != nil {
		t.Fatalf("InjectCrash: %v", err)
	}
	waitCond(t, 5*time.Second, "worker 0 to halt", func() bool { return s.Network().Snapshot(0).Dead })
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	g, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	switch {
	case err == nil:
		if g.Node != 1 {
			t.Errorf("granted at worker %d, want the live end 1", g.Node)
		}
		s.Release(g.SessionID)
	case !errors.Is(err, ErrTimeout):
		t.Fatalf("acquire: %v", err)
	}
	if got := s.Arbiter().AtHandGrants(); got != 0 {
		t.Errorf("AtHandGrants = %d: a bottle at a dead worker was granted without a meal", got)
	}
	if got := s.Arbiter().Holder(s.Graph().EdgeIndex(0, 1)); err != nil && got != 0 {
		t.Errorf("bottle moved to %d although the acquire failed", got)
	}
}

// TestAdoptLeaseInstantOnFreshPrimary: a promoted standby's substrate
// has every bottle free at its initial home, so adopting a replicated
// single-lock lease cannot wait for a meal — there is none to be had on
// a tickless network — and is granted on the adopting goroutine.
func TestAdoptLeaseInstantOnFreshPrimary(t *testing.T) {
	s := startServer(t, tickless(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	deadline := time.Now().Add(time.Minute)
	if err := s.AdoptLease(ctx, "k0:s0000002a-0", []string{"edge:0-1"}, deadline); err != nil {
		t.Fatalf("AdoptLease: %v", err)
	}
	if got := s.Arbiter().AtHandGrants(); got != 1 {
		t.Errorf("AtHandGrants = %d, want 1", got)
	}
	for p, eats := range s.Network().Eats() {
		if eats != 0 {
			t.Errorf("worker %d ate %d meals for an adoption", p, eats)
		}
	}
	if err := s.Release("k0:s0000002a-0"); err != nil {
		t.Fatalf("release of the adopted lease: %v", err)
	}
}
