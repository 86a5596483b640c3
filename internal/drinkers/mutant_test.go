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
// two grants off one lock. detsim's service sweep must notice an arbiter
// that drops the check, and must pass with the check in place.
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
	if killed == 0 {
		t.Fatal("an at-hand rule that ignores bottles in use survived the service sweep")
	}
}
