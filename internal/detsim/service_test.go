package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// TestServiceHistoryLegalUnderCrashes is the service-level sweep: a
// synthetic client workload (submits, cancels, holds, releases) runs
// over the deterministic diners substrate while crashes fire, and every
// recorded grant history must pass the linearizability checker — no two
// sessions may ever hold one lock at once, even when the eating oracle
// reads a malicious node's garbage state — and no session queued at a
// live worker may be passed over by a meal-less grant.
func TestServiceHistoryLegalUnderCrashes(t *testing.T) {
	seeds := sweepSeeds() / 2
	g := graph.Ring(8)
	for s := 0; s < seeds; s++ {
		seed := int64(5_000_000 + s)
		src := NewRand(seed)
		crashes := RandomCrashes(src, g, 1+src.Intn(2), 80, 6)
		res := RunService(ServiceConfig{
			Graph:   g,
			Seed:    seed,
			Rounds:  200,
			Crashes: crashes,
			Source:  src,
		})
		if len(res.HistoryViolations) != 0 {
			t.Errorf("seed %d: illegal lock history: %v", seed, res.HistoryViolations)
		}
		if len(res.SafetyViolations) != 0 {
			t.Errorf("seed %d: diners safety violated under the service: %v", seed, res.SafetyViolations)
		}
		if len(res.StarvationViolations) != 0 {
			t.Errorf("seed %d: a queued session was passed over without a meal: %v", seed, res.StarvationViolations)
		}
		if res.Released+res.Canceled != res.Submitted {
			t.Errorf("seed %d: session accounting leaked: submitted=%d released=%d canceled=%d",
				seed, res.Submitted, res.Released, res.Canceled)
		}
	}
}

// TestServiceGrantsFlow checks the crash-free service actually grants:
// demand-driven hunger wakes workers, sessions are granted during
// eating windows or — bottles at hand, some of them surrendered across
// their edge — without one, the run has every kind, and all grants drain
// by the end.
func TestServiceGrantsFlow(t *testing.T) {
	res := RunService(ServiceConfig{Graph: graph.Ring(6), Seed: 9, Rounds: 250})
	if res.Granted == 0 {
		t.Fatalf("no sessions granted in a healthy run (submitted %d)", res.Submitted)
	}
	if res.Granted > res.Submitted {
		t.Errorf("granted %d > submitted %d", res.Granted, res.Submitted)
	}
	if res.AtHand == 0 || res.AtHand == res.Granted || res.Surrendered == 0 || res.Surrendered == res.AtHand {
		t.Errorf("%d of %d grants were at hand, %d of those surrendered; the run must exercise both halves of the rule and the meal",
			res.AtHand, res.Granted, res.Surrendered)
	}
	if len(res.HistoryViolations) != 0 {
		t.Errorf("illegal history in a healthy run: %v", res.HistoryViolations)
	}
	if res.Failed() {
		t.Errorf("healthy service run failed: safety=%v starvation=%v", res.SafetyViolations, res.StarvationViolations)
	}
}
