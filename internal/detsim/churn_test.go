package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// TestChurnSameSeedIdenticalTrace extends the determinism contract to
// membership churn: leaves, rejoins, and a fresh splice-in are part of
// the execution the seed names, byte for byte.
func TestChurnSameSeedIdenticalTrace(t *testing.T) {
	cfg := Config{
		Graph:  graph.Grid(3, 3),
		Seed:   91,
		Rounds: 160,
		Trace:  true,
		Leaves: []Leave{{Node: 4, Round: 25}, {Node: 0, Round: 40}},
		Joins: []Join{
			{Node: 4, Round: 55},
			{Node: 0, Round: 70},
			{Node: -1, Neighbors: []graph.ProcID{1, 3}, Round: 85},
		},
	}
	a, b := Run(cfg), Run(cfg)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, different trace hashes: %x vs %x", a.TraceHash, b.TraceHash)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace line %d differs:\n  %q\n  %q", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.Leaves != 2 || a.Joins != 3 {
		t.Fatalf("churn counts: leaves=%d joins=%d, want 2/3", a.Leaves, a.Joins)
	}
}

// TestLeaveFreesDisplacedWaiters is the directed churn case: a grid
// center leaves mid-run and rejoins later. Its four neighbors are the
// displaced waiters — the leave drops the shared edges and any tokens
// they pinned, so all of them (and eventually the rejoiner) must keep
// completing meals. Any starvation shows up as a churn, locality, or
// restart violation.
func TestLeaveFreesDisplacedWaiters(t *testing.T) {
	res := Run(Config{
		Graph:  graph.Grid(3, 3),
		Seed:   17,
		Rounds: 200,
		Leaves: []Leave{{Node: 4, Round: 30}},
		Joins:  []Join{{Node: 4, Round: 60}},
	})
	if res.Failed() {
		t.Fatalf("directed churn run failed: safety=%v locality=%v restart=%v churn=%v",
			res.SafetyViolations, res.LocalityViolations, res.RestartViolations, res.ChurnViolations)
	}
	if res.Leaves != 1 || res.Joins != 1 {
		t.Fatalf("leaves=%d joins=%d, want 1/1", res.Leaves, res.Joins)
	}
	// The rejoin feeds the recovery oracle: node 4 must have eaten again.
	found := false
	for _, rc := range res.Recoveries {
		if rc.Node == 4 && rc.Round == 60 {
			found = true
			if rc.RecoveredAfter < 0 {
				t.Fatalf("rejoined node 4 never ate again: %+v", rc)
			}
		}
	}
	if !found {
		t.Fatal("rejoin did not register a recovery entry")
	}
}

// TestAddProcessGrowsRoster splices a brand-new process into a running
// ring. The roster grows, the newcomer converges to its first meal, and
// no incumbent's exclusion or liveness is disturbed.
func TestAddProcessGrowsRoster(t *testing.T) {
	g := graph.Ring(6)
	res := Run(Config{
		Graph:  g,
		Seed:   23,
		Rounds: 200,
		Joins:  []Join{{Node: -1, Neighbors: []graph.ProcID{0, 3}, Round: 40}},
	})
	if res.Failed() {
		t.Fatalf("splice-in run failed: safety=%v locality=%v restart=%v churn=%v",
			res.SafetyViolations, res.LocalityViolations, res.RestartViolations, res.ChurnViolations)
	}
	if len(res.Eats) != g.N()+1 {
		t.Fatalf("roster has %d eat counters, want %d", len(res.Eats), g.N()+1)
	}
	if res.Eats[g.N()] == 0 {
		t.Fatalf("spliced-in node %d never ate: %v", g.N(), res.Eats)
	}
}

// TestChurnSweepNoViolations is the churn acceptance sweep: seed-indexed
// runs over ring and grid with randomized leave/rejoin pairs, requiring
// zero violations of any oracle — exclusion stays intact through every
// splice, and every displaced waiter eventually eats. A flagged seed
// replays via the printed cmd/detsim invocation.
func TestChurnSweepNoViolations(t *testing.T) {
	topos := []struct {
		flag string
		g    *graph.Graph
	}{
		{"ring:6", graph.Ring(6)},
		{"grid:3x3", graph.Grid(3, 3)},
	}
	seeds := sweepSeeds()
	for ti, tp := range topos {
		tp := tp
		base := int64(40_000_000 + ti*1_000_000)
		t.Run(tp.flag, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < seeds; s++ {
				seed := base + int64(s)
				churn := 1 + int(seed%2)
				res := SweepChurn(tp.g, seed, 240, churn, false)
				if res.Failed() {
					t.Errorf("seed %d: safety=%v locality=%v restart=%v churn=%v\nreplay: go run ./cmd/detsim -mode churn -topology %s -seed %d -rounds 240 -churn %d -trace",
						seed, res.SafetyViolations, res.LocalityViolations, res.RestartViolations, res.ChurnViolations, tp.flag, seed, churn)
				}
				if res.Leaves == 0 {
					t.Errorf("seed %d: churn plan executed no leaves", seed)
				}
			}
		})
	}
}

// TestChurnAdversarialSafety hammers exclusion through membership
// splices under unfair schedules: the adversary may starve the joiner
// or reorder channel progress arbitrarily, and two live neighbors must
// still never eat together — a forged token on a freshly spliced edge
// would show up here. The full run covers 6000 seeds, the range in which
// the rejoin bug pinned below showed 4 times; -short and -race keep the
// first few.
func TestChurnAdversarialSafety(t *testing.T) {
	t.Parallel()
	seeds := 6000
	if testing.Short() || raceEnabled {
		seeds = sweepSeeds() / 2
	}
	bad := 0
	for s := 0; s < seeds; s++ {
		seed := int64(50_000_000 + s)
		if res := adversarialChurn(seed); len(res.SafetyViolations) != 0 {
			bad++
			t.Errorf("seed %d: safety violated under adversarial churn: %v", seed, res.SafetyViolations)
		}
	}
	t.Logf("%d of %d seeds violate exclusion", bad, seeds)
}

// adversarialChurn is the seed-indexed adversarial churn run on ring(6):
// the seed draws one or two leave/rejoin pairs, then the whole unfair
// schedule.
func adversarialChurn(seed int64) *Result {
	g := graph.Ring(6)
	src := NewRand(seed)
	leaves, joins := RandomChurn(src, g, 1+src.Intn(2), 1024)
	return RunAdversarial(Config{
		Graph:    g,
		Seed:     seed,
		MaxSteps: 2048,
		Leaves:   leaves,
		Joins:    joins,
		Source:   src,
	})
}

// TestRejoinedEdgeRejectsOldGenerationFrames pins a dual-eat across
// leave → rejoin. A re-created edge used to keep its frame index, so a
// frame sent before the leave and still in flight was accepted on the
// new generation, where its old K-state counter read as a handover: a
// forged token. The first four seeds violated exclusion on the code
// before the fix (they sit outside the 167 seeds the sweep above used to
// cover, which is how the bug stayed latent); the last three did once token
// handovers stopped waiting for the tick. Every splice now allocates a
// fresh index, so old-generation frames die at handle()'s stray check.
func TestRejoinedEdgeRejectsOldGenerationFrames(t *testing.T) {
	for _, seed := range []int64{
		50001579, 50004059, 50005364, 50005682,
		50000000, 50000026, 50000058,
	} {
		if res := adversarialChurn(seed); len(res.SafetyViolations) != 0 {
			t.Errorf("seed %d: %v", seed, res.SafetyViolations)
		}
	}
}

// TestRandomChurnDeterministic pins the plan drawing: same source state,
// same plan; victims distinct; every rejoin 10..29 rounds after its
// leave.
func TestRandomChurnDeterministic(t *testing.T) {
	g := graph.Grid(3, 3)
	l1, j1 := RandomChurn(NewRand(99), g, 3, 100)
	l2, j2 := RandomChurn(NewRand(99), g, 3, 100)
	if len(l1) != 3 || len(j1) != 3 {
		t.Fatalf("plan sizes: %d leaves, %d joins, want 3/3", len(l1), len(j1))
	}
	seen := map[graph.ProcID]bool{}
	for i := range l1 {
		if l1[i] != l2[i] || j1[i].Node != j2[i].Node || j1[i].Round != j2[i].Round {
			t.Fatalf("plan entry %d differs across identical sources", i)
		}
		if seen[l1[i].Node] {
			t.Fatalf("victim %d drawn twice", l1[i].Node)
		}
		seen[l1[i].Node] = true
		if gap := j1[i].Round - l1[i].Round; gap < 10 || gap > 29 {
			t.Fatalf("rejoin gap %d outside [10,29]", gap)
		}
		if j1[i].Node != l1[i].Node {
			t.Fatalf("rejoin %d does not match leave %d", j1[i].Node, l1[i].Node)
		}
	}
}
