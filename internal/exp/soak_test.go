package exp

import (
	"math/rand"
	"testing"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
	"mcdp/internal/spec"
	"mcdp/internal/workload"
)

// TestSoakChaos throws randomized scenarios at the full stack: random
// topologies, random workloads, random arbitrary starts, and random
// fault barrages (benign, malicious, transient, in any combination and
// order). Invariants asserted per scenario:
//
//   - after the fault barrage and a settling window, the invariant I
//     holds and keeps holding;
//   - the starved set (under an always-hungry tail) sits within
//     distance 2 of the dead set;
//   - the eating-pair count is monotone under I (Theorem 3).
func TestSoakChaos(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	const scenarios = 24
	for i := 0; i < scenarios; i++ {
		i := i
		t.Run("", func(t *testing.T) {
			runChaosScenario(t, int64(i+1))
		})
	}
}

func runChaosScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed * 7919))
	g := randomTopology(rng)
	// Random fault barrage within the first 4000 steps.
	plan := sim.NewFaultPlan()
	deadBudget := 1 + rng.Intn(2) // keep enough of the graph alive
	for f := 0; f < deadBudget; f++ {
		ev := sim.FaultEvent{
			Step: int64(rng.Intn(4000)),
			Proc: graph.ProcID(rng.Intn(g.N())),
		}
		switch rng.Intn(3) {
		case 0:
			ev.Kind = sim.BenignCrash
		case 1:
			ev.Kind = sim.MaliciousCrash
			ev.ArbitrarySteps = 1 + rng.Intn(40)
		default:
			ev.Kind = sim.TransientFault
		}
		plan.Add(ev)
	}
	w := sim.NewWorld(sim.Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		Workload:         workload.AlwaysHungry(),
		Seed:             seed,
		DiameterOverride: sim.SafeDepthBound(g),
		Faults:           plan,
	})
	if rng.Intn(2) == 0 {
		w.InitArbitrary(rng)
	}

	// Phase 1: ride out the barrage plus a settling window.
	w.Run(4000)
	settled := w.RunUntil(func(w *sim.World) bool {
		// All malicious windows must have closed and I must hold.
		for p := 0; p < g.N(); p++ {
			if w.Status(graph.ProcID(p)) == sim.Malicious {
				return false
			}
		}
		return spec.CheckInvariant(w).Holds()
	}, int64(g.N())*6000)
	if !settled {
		t.Fatalf("seed %d on %v: never settled into I after the barrage", seed, g)
	}

	// Phase 2: audited tail.
	const tail = 20000
	lastEat := make([]int64, g.N())
	for i := range lastEat {
		lastEat[i] = -1
	}
	mon := spec.NewMonitor()
	mon.CheckInvariantEvery = 20
	w.Observe(mon)
	start := w.Steps()
	w.Observe(sim.ObserverFunc(func(w *sim.World, step int64, c sim.Choice) {
		if !c.Malicious() && w.State(c.Proc) == core.Eating {
			lastEat[c.Proc] = step - start
		}
	}))
	w.Run(tail)
	rep := mon.Report()
	if rep.InvariantBroken != 0 || rep.MonotonicityBreaks != 0 {
		t.Errorf("seed %d on %v: audit failed: %v", seed, g, rep)
	}
	starved, within := spec.StarvationAudit(w, lastEat, tail/2, 2, nil)
	if !within {
		t.Errorf("seed %d on %v: starved set %v escaped the locality (dead %v)",
			seed, g, starved, spec.DeadProcs(w))
	}
}

func randomTopology(rng *rand.Rand) *graph.Graph {
	switch rng.Intn(6) {
	case 0:
		return graph.Ring(5 + rng.Intn(10))
	case 1:
		return graph.Path(5 + rng.Intn(10))
	case 2:
		return graph.Grid(2+rng.Intn(3), 2+rng.Intn(3))
	case 3:
		return graph.RandomTree(6+rng.Intn(10), rng)
	case 4:
		return graph.Wheel(5 + rng.Intn(6))
	default:
		return graph.RandomConnected(6+rng.Intn(8), 0.3, rng)
	}
}
