package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// TestForkCrashStarvesRing is the deterministic replacement for the
// wall-clock TestForkNetworkCrashStarvesEveryone, with the assertion
// the sleep-based version had to relax re-tightened: kill philosopher 0
// before its first step on a ring, and the Chandy-Misra baseline must
// reach exact quiescence — a round after which no frame is pending, no
// frame is emitted, nobody is eating, and meal counts are frozen — with
// the victim at exactly zero meals, every survivor at most one
// transient meal, and not a single meal completing after the quiescent
// round. On the wall-clock runtime "starves forever" could only be
// sampled through sleep windows; here it is decided, because a frozen
// fair deterministic system provably never moves again.
func TestForkCrashStarvesRing(t *testing.T) {
	res := RunFork(ForkConfig{
		Graph:   graph.Ring(5),
		Seed:    1,
		Rounds:  300,
		Crashes: []Crash{{Node: 0, Round: 0}},
	})
	if res.QuiescedAt < 0 {
		t.Fatalf("CM ring with a dead fork holder never quiesced; eats=%v", res.Eats)
	}
	if res.Eats[0] != 0 {
		t.Errorf("philosopher 0 was killed before its first step yet ate %d times", res.Eats[0])
	}
	for p, e := range res.Eats {
		if e > 1 {
			t.Errorf("philosopher %d ate %d times; at most one transient meal can precede the CM deadlock", p, e)
		}
		if e != res.EatsAtQuiesce[p] {
			t.Errorf("philosopher %d ate after quiescence (%d -> %d); frozen must mean frozen forever",
				p, res.EatsAtQuiesce[p], e)
		}
	}
	if len(res.SafetyViolations) != 0 {
		t.Errorf("CM safety violated: %v", res.SafetyViolations)
	}
	// Contrast with the paper's protocol under the same fault plan: the
	// diners runtime keeps every node at distance >= 3 eating.
	diners := Run(Config{Graph: graph.Ring(6), Seed: 1, Rounds: 300,
		Crashes: []Crash{{Node: 0, Round: 0}}})
	if len(diners.LocalityViolations) != 0 {
		t.Errorf("diners runtime lost locality under the same fault: %v", diners.LocalityViolations)
	}
}

// TestForkSweepCrashAlwaysQuiesces sweeps seeds over the baseline with
// an early kill: every schedule must deadlock the ring — the starvation
// is inherent, not a lucky interleaving.
func TestForkSweepCrashAlwaysQuiesces(t *testing.T) {
	seeds := sweepSeeds() / 4
	for s := 0; s < seeds; s++ {
		seed := int64(3_000_000 + s)
		res := RunFork(ForkConfig{
			Graph:   graph.Ring(5),
			Seed:    seed,
			Rounds:  300,
			Crashes: []Crash{{Node: 0, Round: 0}},
		})
		if res.QuiescedAt < 0 {
			t.Errorf("seed %d: CM ring never quiesced after the kill; eats=%v", seed, res.Eats)
			continue
		}
		for p, e := range res.Eats {
			if e != res.EatsAtQuiesce[p] {
				t.Errorf("seed %d: philosopher %d ate after quiescence", seed, p)
			}
		}
	}
}

// TestForkHealthyRingNeverQuiesces pins the contrast: with no crash the
// baseline circulates forks forever and everyone keeps eating.
func TestForkHealthyRingNeverQuiesces(t *testing.T) {
	res := RunFork(ForkConfig{Graph: graph.Ring(5), Seed: 2, Rounds: 200})
	if res.QuiescedAt >= 0 {
		t.Errorf("healthy CM ring quiesced at round %d", res.QuiescedAt)
	}
	for p, e := range res.Eats {
		if e < 2 {
			t.Errorf("philosopher %d ate only %d times in a healthy run", p, e)
		}
	}
	if len(res.SafetyViolations) != 0 {
		t.Errorf("CM safety violated: %v", res.SafetyViolations)
	}
}

// TestForkValidation pins the config contract.
func TestForkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RunFork without a graph must panic")
		}
	}()
	RunFork(ForkConfig{})
}
