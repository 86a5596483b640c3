package lockservice

import (
	"mcdp/internal/core"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// Alive reports whether worker p of nw can back a grant: its current
// incarnation has not halted and it has not left the service.
func Alive(nw *msgpass.Network, p graph.ProcID) bool {
	return aliveIn(nw.Snapshot(p), nw, p)
}

// aliveIn is Alive for a caller that already holds p's snapshot.
func aliveIn(snap msgpass.Snapshot, nw *msgpass.Network, p graph.ProcID) bool {
	return !snap.Dead && !nw.Departed(p)
}

// Eating reports whether worker p of nw is inside its exclusive window
// and can back the grants made in it.
func Eating(nw *msgpass.Network, p graph.ProcID) bool {
	snap := nw.Snapshot(p)
	return snap.State == core.Eating && aliveIn(snap, nw, p)
}

// Couple makes nw the diners substrate behind arb: the arbiter's at-hand
// rule reads worker liveness from it. Call before arb is shared.
func Couple(arb *drinkers.Arbiter, nw *msgpass.Network) {
	arb.Alive = func(p graph.ProcID) bool { return Alive(nw, p) }
}

// PumpStep runs one scheduling pass of arb over its coupled substrate
// and returns the sessions it granted: every queue head whose live home
// is inside its exclusive window, or whose bottles are at hand (at the
// home, or surrendered by a live peer nobody queued at asks for them), is
// granted, and — from the same instant of the arbiter's state — each
// worker is made hungry exactly when sessions are still queued at it. A
// worker whose hunger changed is woken, so the new demand is served at
// transport latency, not tick latency (a no-op on a driven network). The
// Server — on its network's event loop when a worker enters Eating, on the
// caller's goroutine after every other change — and the detsim harnesses
// all advance through this one function, so the service and its model
// cannot disagree on who may grant or who is hungry. It never waits on
// the event loop, which is what lets the loop call it.
func PumpStep(arb *drinkers.Arbiter, nw *msgpass.Network) []*drinkers.Session {
	return arb.PumpNeeds(func(p graph.ProcID) bool {
		return Eating(nw, p)
	}, func(p graph.ProcID, pending bool) {
		if nw.Needs(p) != pending {
			nw.SetNeeds(p, pending)
			nw.Wake(p)
		}
	})
}
