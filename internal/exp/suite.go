package exp

import (
	"time"

	"mcdp/internal/stats"
)

// SuiteOptions scales the experiment suite.
type SuiteOptions struct {
	// Seeds are the trial seeds per configuration.
	Seeds []int64
	// Quick shrinks sweeps for fast runs (benchmarks, CI).
	Quick bool
	// MsgPassWall is the wall-clock budget for the message-passing
	// experiment.
	MsgPassWall time.Duration
}

// DefaultSuiteOptions returns the options used to produce EXPERIMENTS.md.
func DefaultSuiteOptions() SuiteOptions {
	return SuiteOptions{
		Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8},
		MsgPassWall: 1600 * time.Millisecond,
	}
}

// QuickSuiteOptions returns a reduced suite for smoke runs.
func QuickSuiteOptions() SuiteOptions {
	return SuiteOptions{
		Seeds:       []int64{1, 2, 3},
		Quick:       true,
		MsgPassWall: 600 * time.Millisecond,
	}
}

// RunSuite executes every experiment, stamping each result with its
// wall time, and returns them in index order.
func RunSuite(o SuiteOptions) []Result {
	exps := experiments(o)
	results := make([]Result, 0, len(exps))
	for _, run := range exps {
		start := time.Now()
		r := run()
		r.Elapsed = time.Since(start)
		results = append(results, r)
	}
	return results
}

// experiments lists the suite's experiments in index order, each bound
// to its share of o.
func experiments(o SuiteOptions) []func() Result {
	sizes := []int{8, 16, 32, 64}
	e4sizes := []int{6, 12, 24}
	e5sizes := []int{4, 6, 8, 12}
	if o.Quick {
		sizes = []int{8, 16}
		e4sizes = []int{6, 12}
		e5sizes = []int{4, 8}
	}
	return []func() Result{
		func() Result { return E1FailureLocality(o.Seeds, sizes) },
		func() Result { return E1bLocalityTopologies(o.Seeds) },
		func() Result { return E2Stabilization(o.Seeds) },
		func() Result { return E2bClosureByRun(o.Seeds) },
		func() Result { return E3Safety(o.Seeds) },
		func() Result { return E4Liveness(o.Seeds, e4sizes) },
		func() Result { return E4bFairnessAcrossSchedulers(o.Seeds[0]) },
		func() Result { return E5CycleBreaking(o.Seeds, e5sizes) },
		func() Result { return E5bDepthBounds(o.Seeds) },
		func() Result { return E6MaliciousVsBenign(o.Seeds) },
		func() Result { return E7Masking(o.Seeds[:min(4, len(o.Seeds))]) },
		func() Result { return E8MessagePassing(o.MsgPassWall) },
		func() Result { return E8bForkBaseline(o.MsgPassWall) },
		func() Result { return E9ModelCheck() },
		func() Result { return E10DepthChoice(o.Seeds) },
		func() Result { return E10DiameterOverestimate(o.Seeds[:min(4, len(o.Seeds))]) },
		func() Result { return E10Workloads(o.Seeds[0]) },
		func() Result { return E11CapabilityMatrix(o.Seeds[:min(4, len(o.Seeds))]) },
		func() Result { return E12MultiCrash(o.Seeds[:min(3, len(o.Seeds))]) },
		func() Result { return E13ConvergenceScaling(o.Seeds[:min(5, len(o.Seeds))]) },
		func() Result { return E14AtomicityRefinement(o.Seeds[:min(3, len(o.Seeds))]) },
		func() Result { return E15MaskingGap(o.Seeds[:min(4, len(o.Seeds))]) },
		func() Result { return E16DrinkersInheritance(o.Seeds[:min(2, len(o.Seeds))]) },
		func() Result { return E17OmniscientAdversary(o.Seeds[:min(3, len(o.Seeds))]) },
		func() Result { return FigureIndex(o.Seeds) },
	}
}

// FigureIndex reports the paper-artifact reproductions (Figures 1 and 2).
func FigureIndex(seeds []int64) Result {
	res := Result{
		ID:    "F1/F2",
		Claim: "Paper Figure 1 (the algorithm) and Figure 2 (example operation)",
	}
	tbl := stats.NewTable(
		"F2: example-operation replay",
		"seed", "d left", "g broke cycle", "e ate", "b,c blocked", "verdict",
	)
	for _, seed := range seeds {
		out := RunFigure2(seed, 20000)
		tbl.AddRow(seed, out.DLeft, out.GBrokeCycle, out.EAte, !out.BAte && !out.CAte, verdict(out.Holds()))
	}
	res.Table = tbl
	res.Notes = []string{
		"F1 is the core implementation itself (internal/core, conformance-tested action by action).",
		"F2 replays the 7-process example: d leaves (dynamic threshold), g breaks the e-g-f cycle when",
		"its depth passes the diameter 3, e then eats; b and c remain blocked by the crashed eater a.",
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
