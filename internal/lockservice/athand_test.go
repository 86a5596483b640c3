package lockservice

import (
	"context"
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
func awaitBootGossip(t *testing.T, s *Server) int64 {
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
	for p, eats := range s.Network().Eats() {
		if eats != 0 || s.Network().Needs(graph.ProcID(p)) {
			t.Errorf("worker %d: %d meals, hungry=%v; want an undisturbed substrate", p, eats, s.Network().Needs(graph.ProcID(p)))
		}
	}
	if got := s.Network().MessagesSent(); got != sent {
		t.Errorf("MessagesSent went %d -> %d over a lone acquire loop", sent, got)
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
