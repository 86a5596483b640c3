package drinkers_test

import (
	"testing"

	"mcdp/internal/detsim"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
)

// TestMutantAtHandIgnoringUseTripsHistoryOracle: the at-hand rule grants
// without the meal whose exclusion used to stand behind every grant, so
// its own "no Drinking session holds the bottle" check is all that keeps
// two grants off one lock — whether the bottle is at the home or across
// the edge: both halves of the rule share the check. detsim's service
// sweep must notice an arbiter that drops it, and must pass with the
// check in place.
func TestMutantAtHandIgnoringUseTripsHistoryOracle(t *testing.T) {
	run := func(seed int64) *detsim.ServiceResult {
		return detsim.RunService(detsim.ServiceConfig{Graph: graph.Ring(8), Seed: seed, Rounds: 200})
	}
	const seeds = 20
	killed := 0
	for s := int64(0); s < seeds; s++ {
		seed := 5_100_000 + s
		if res := run(seed); res.Failed() {
			t.Errorf("seed %d: the real rule failed: history=%v safety=%v", seed, res.HistoryViolations, res.SafetyViolations)
		}
		restore := drinkers.MutateAtHandIgnoresUse()
		res := run(seed)
		restore()
		if len(res.HistoryViolations) > 0 {
			killed++
		}
	}
	t.Logf("in-use-blind at-hand mutant tripped the history oracle on %d/%d seeds", killed, seeds)
	if killed < seeds {
		t.Fatalf("an at-hand rule that ignores bottles in use survived %d of %d service runs", seeds-killed, seeds)
	}
}

// TestMutantSurrenderIgnoringDemandTripsStarvationOracle: the fairness of
// meal-less grants rests on one condition — a session queued at either
// live end of an edge keeps the bottle from meal-less grants at the other
// — and for a bottle across the edge that condition is the peer's demand.
// detsim's service sweep must catch an arbiter that surrenders a bottle
// its holder has a queued session for (the waiter is passed over, and
// nothing bounds how often), while its history stays legal: the mutant is
// unfair, not unsafe.
func TestMutantSurrenderIgnoringDemandTripsStarvationOracle(t *testing.T) {
	run := func(seed int64) *detsim.ServiceResult {
		return detsim.RunService(detsim.ServiceConfig{Graph: graph.Ring(8), Seed: seed, Rounds: 400})
	}
	const seeds = 20
	killed := 0
	for s := int64(0); s < seeds; s++ {
		seed := 5_200_000 + s
		if res := run(seed); res.Failed() || res.Surrendered == 0 {
			t.Errorf("seed %d: the real rule failed or never surrendered a bottle (%d): starvation=%v history=%v",
				seed, res.Surrendered, res.StarvationViolations, res.HistoryViolations)
		}
		restore := drinkers.MutateSurrenderIgnoresDemand()
		res := run(seed)
		restore()
		if len(res.HistoryViolations) > 0 {
			t.Errorf("seed %d: the demand-blind mutant broke exclusion, which it should not be able to: %v", seed, res.HistoryViolations)
		}
		if len(res.StarvationViolations) > 0 {
			killed++
		}
	}
	t.Logf("demand-blind surrender mutant tripped the starvation oracle on %d/%d seeds", killed, seeds)
	if killed < seeds {
		t.Fatalf("a surrender rule that ignores the holder's queued sessions survived %d of %d service runs", seeds-killed, seeds)
	}
}
