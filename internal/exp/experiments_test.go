package exp

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The experiment tests assert the SHAPES the reproduction promises —
// who wins, what is bounded, what diverges — not absolute numbers.

func seeds2() []int64 { return []int64{1, 2} }

// suiteIDs are the quick suite's experiment IDs, in index order.
var suiteIDs = []string{"E1", "E1b", "E2", "E2b", "E3", "E4", "E4b", "E5", "E5b", "E6", "E7", "E8", "E8b", "E9", "E10a", "E10b", "E10c", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "F1/F2"}

// quickSuite is the quick suite with every experiment computed at most
// once per test binary, on first use: each shape test asserts on its own
// experiment's result, and TestRunSuiteQuickProducesAllExperiments on
// all of them. Each experiment runs with its shape test's parameters —
// seeds2() and the quick sizes, and E2 over three seeds.
var quickSuite = func() []func() Result {
	exps := experiments(SuiteOptions{Seeds: seeds2(), Quick: true, MsgPassWall: 400 * time.Millisecond})
	exps[slices.Index(suiteIDs, "E2")] = func() Result { return E2Stabilization([]int64{1, 2, 3}) }
	for i, run := range exps {
		exps[i] = sync.OnceValue(run)
	}
	return exps
}()

// quick returns experiment id's result from the quick suite.
func quick(id string) Result { return quickSuite[slices.Index(suiteIDs, id)]() }

// rows extracts the rendered table rows (after the separator line) as
// whitespace-split cells.
func rows(r Result) [][]string {
	lines := strings.Split(strings.TrimSpace(r.Table.String()), "\n")
	var out [][]string
	for _, l := range lines[3:] { // title, header, separator
		out = append(out, strings.Fields(l))
	}
	return out
}

func TestE1ShapeLocalityTwoVsUnbounded(t *testing.T) {
	t.Parallel()
	res := quick("E1")
	for _, row := range rows(res) {
		alg, n, radius := row[0], row[1], row[2]
		switch alg {
		case "mcdp":
			if radius != "0" && radius != "1" && radius != "2" {
				t.Errorf("mcdp n=%s radius = %s, want <= 2", n, radius)
			}
		case "noyield", "hygienic":
			want := map[string]string{"8": "7", "16": "15"}[n]
			if radius != want {
				t.Errorf("%s n=%s radius = %s, want %s (whole chain)", alg, n, radius, want)
			}
		}
	}
}

func TestE1bShapeMaliciousLocality(t *testing.T) {
	t.Parallel()
	res := quick("E1b")
	for _, row := range rows(res) {
		radius := row[3] // topology, victim, daemon, radius, count
		if radius != "-1" && radius != "0" && radius != "1" && radius != "2" {
			t.Errorf("topology %s under %s daemon: starved radius %s exceeds the locality 2",
				row[0], row[2], radius)
		}
	}
}

func TestE2ShapeThresholdGap(t *testing.T) {
	t.Parallel()
	res := quick("E2")
	for _, row := range rows(res) {
		topo, threshold, demand, converged := row[0], row[1], row[2], row[3]
		if threshold == "n-1" && converged != "3" {
			t.Errorf("%s n-1 %s: converged %s/3 — the repaired threshold must always converge",
				topo, demand, converged)
		}
		if topo == "ring(3)" && threshold == "diameter" && converged != "0" {
			t.Errorf("ring(3) with D=diameter converged %s times; the invariant is unsatisfiable there",
				converged)
		}
		if topo == "ring(4)" && threshold == "diameter" && demand == "quiet" && converged != "0" {
			t.Errorf("quiet ring(4) with D=diameter converged %s times; expected the livelock", converged)
		}
	}
}

func TestE3ShapeNoMonotonicityViolations(t *testing.T) {
	t.Parallel()
	res := quick("E3")
	for _, row := range rows(res) {
		if v := row[len(row)-1]; v != "0" {
			t.Errorf("topology %s: %s monotonicity violations, want 0", row[0], v)
		}
	}
}

func TestE5ShapeDepthMachineryNecessity(t *testing.T) {
	t.Parallel()
	res := quick("E5")
	for _, row := range rows(res) {
		alg, demand, recovered := row[0], row[1], row[3]
		switch {
		case alg == "mcdp" && recovered != "2":
			t.Errorf("mcdp %s recovered %s/2 trials", demand, recovered)
		case alg == "nodepth" && demand == "quiet" && recovered != "0":
			t.Errorf("nodepth quiet recovered %s trials; the cycle should be permanent", recovered)
		}
	}
}

func TestE6ShapeBoundedRecovery(t *testing.T) {
	t.Parallel()
	res := quick("E6")
	rs := rows(res)
	for _, row := range rs {
		if row[1] != "2" {
			t.Errorf("%s recovered %s/2", row[0], row[1])
		}
		radius := row[len(row)-1]
		if radius != "-1" && radius != "0" && radius != "1" && radius != "2" {
			t.Errorf("%s starved radius %s > 2", row[0], radius)
		}
	}
}

func TestE7ShapeMasking(t *testing.T) {
	t.Parallel()
	res := quick("E7")
	for _, row := range rows(res) {
		if row[1] != "0" {
			t.Errorf("seed %s: %s relativized safety violations, want 0", row[0], row[1])
		}
	}
}

func TestE9ShapeExhaustiveVerdicts(t *testing.T) {
	t.Parallel()
	res := quick("E9")
	for _, row := range rows(res) {
		threshold := row[1]
		check := strings.Join(row[2:len(row)-2], " ")
		verdictCell := row[len(row)-1]
		switch {
		case threshold == "n-1" && verdictCell != "HOLDS":
			t.Errorf("%s %s under n-1: %s, want HOLDS", row[0], check, verdictCell)
		case threshold == "diameter" && strings.Contains(check, "convergence") && verdictCell != "VIOLATED":
			t.Errorf("%s %s under diameter: %s, want VIOLATED (the threshold gap)", row[0], check, verdictCell)
		}
	}
}

func TestE10ShapesAllRecover(t *testing.T) {
	t.Parallel()
	for _, res := range []Result{quick("E10a"), quick("E10b")} {
		for _, row := range rows(res) {
			if row[1] != "2" {
				t.Errorf("%s: row %v did not recover in all trials", res.ID, row)
			}
		}
	}
}

func TestE10bRecoveryScalesWithThreshold(t *testing.T) {
	t.Parallel()
	res := quick("E10b")
	rs := rows(res)
	first := rs[0][2]
	last := rs[len(rs)-1][2]
	if first == last {
		t.Errorf("recovery cost did not grow with the threshold: %s vs %s", first, last)
	}
}

func TestE11ShapeOnlyMCDPInGoodQuadrant(t *testing.T) {
	t.Parallel()
	res := quick("E11")
	for _, row := range rows(res) {
		alg, local, stab := row[0], row[2], row[3]
		wantLocal := map[string]string{"mcdp": "yes", "nodepth": "yes", "noyield": "NO", "hygienic": "NO"}[alg]
		wantStab := map[string]string{"mcdp": "yes", "nodepth": "NO", "noyield": "yes", "hygienic": "NO"}[alg]
		if local != wantLocal || stab != wantStab {
			t.Errorf("%s: (locality=%s, stabilizes=%s), want (%s, %s)", alg, local, stab, wantLocal, wantStab)
		}
	}
}

func TestE12ShapeUnlimitedFailures(t *testing.T) {
	t.Parallel()
	res := quick("E12")
	for _, row := range rows(res) {
		outside, far := row[2], row[len(row)-1]
		if outside != "0" {
			t.Errorf("%s with %s crashes: %s starved outside the locality balls", row[0], row[1], outside)
		}
		if far != "yes" {
			t.Errorf("%s with %s crashes: distant processes stopped eating", row[0], row[1])
		}
	}
}

func TestE13ShapeAllConverge(t *testing.T) {
	t.Parallel()
	res := quick("E13")
	for _, row := range rows(res) {
		// mean steps present and positive for every family/size.
		if row[3] == "0" {
			t.Errorf("%s n=%s: no converged trials", row[0], row[1])
		}
	}
}

func TestE17ShapeAdversaryAchievesEverything(t *testing.T) {
	t.Parallel()
	res := quick("E17")
	for _, row := range rows(res) {
		achieved := row[len(row)-1]
		if achieved != "2" {
			t.Errorf("row %v: achieved %s/2 — a daemon defeated a guarantee", row, achieved)
		}
	}
}

func TestE16ShapeZeroConflicts(t *testing.T) {
	t.Parallel()
	res := quick("E16")
	for _, row := range rows(res) {
		if row[2] != "0" {
			t.Errorf("%s: %s conflicting sessions, want 0", row[0], row[2])
		}
		if row[3] != "yes" {
			t.Errorf("%s: distant drinkers stalled after the crash", row[0])
		}
	}
}

func TestE15ShapeNoFarViolationsDuringWindow(t *testing.T) {
	t.Parallel()
	res := quick("E15")
	for _, row := range rows(res) {
		if row[1] != "0" {
			t.Errorf("window %s: %s distance>=3 safety violations during the window, want 0",
				row[0], row[1])
		}
	}
}

func TestE14ShapeRefinementPreservesLocality(t *testing.T) {
	t.Parallel()
	res := quick("E14")
	for _, row := range rows(res) {
		if row[1] != "register" {
			continue
		}
		loc := row[len(row)-1]
		if loc == "VIOLATED" {
			t.Errorf("%s: the refinement lost the failure locality", row[0])
		}
	}
}

func TestRunSuiteQuickProducesAllExperiments(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	if len(quickSuite) != len(suiteIDs) {
		t.Fatalf("suite lists %d experiments, want %d", len(quickSuite), len(suiteIDs))
	}
	for i, run := range quickSuite {
		r := run()
		if r.ID != suiteIDs[i] {
			t.Errorf("result %d has ID %q, want %q", i, r.ID, suiteIDs[i])
		}
		if r.Table == nil || len(rows(r)) == 0 {
			t.Errorf("%s has an empty table", r.ID)
		}
		if r.Claim == "" {
			t.Errorf("%s has no claim", r.ID)
		}
	}
}
