// Command detsim runs deterministic, seed-replayable simulations of the
// malicious-crash diners runtime and the lock service over it.
//
// One seed names one complete execution — schedule, crash plan,
// delivery order — so a seed flagged by a sweep (here or in the test
// suite) replays bit-for-bit:
//
//	detsim -topology ring:6 -seed 42 -crash 2 -trace
//	detsim -topology grid:3x3 -seeds 0..999 -crash 1
//	detsim -topology ring:8 -seed 7 -mode service
//	detsim -topology ring:5 -seed 1 -mode fork
//	detsim -topology grid:3x3 -seeds 0..99 -crash 2 -mode chaos
//	detsim -topology grid:3x3 -seeds 0..99 -churn 2 -mode churn
//	detsim -topology grid:3x3 -seed 9 -shards 3 -mode span
//	detsim -topology grid:3x3 -seeds 0..99 -shards 2 -crash 2 -mode span
//	detsim -topology grid:3x3 -seeds 0..99 -shards 2 -migrations 3 -mode migrate
//	detsim -topology grid:3x3 -seed 4 -shards 2 -mode migrate-auto -trace
//	detsim -mode replica -seeds 0..99 -replicas 3 -kills 3
//	detsim -mode replica-adversarial -seed 11 -replicas 3 -kills 4 -trace
//
// The process exits 1 if any run violates a checked property (eating
// exclusion, failure locality 2, lock-history linearizability), which
// makes sweeps scriptable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mcdp/internal/chaos"
	"mcdp/internal/detsim"
	"mcdp/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes the CLI and returns the process exit code.
func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("detsim", flag.ExitOnError)
	var (
		topology   = fs.String("topology", "ring:6", "topology: ring:N | star:N | path:N | complete:N | grid:RxC | torus:RxC")
		seed       = fs.Int64("seed", 0, "seed for a single run")
		seeds      = fs.String("seeds", "", "seed range N..M (inclusive) for a sweep; overrides -seed")
		rounds     = fs.Int("rounds", 200, "fair rounds (or adversarial steps)")
		crash      = fs.Int("crash", 0, "number of seed-drawn crash victims (malicious windows up to 6 steps)")
		churn      = fs.Int("churn", 0, "number of seed-drawn leave/rejoin pairs (churn mode)")
		shards     = fs.Int("shards", 2, "shard count for span mode")
		replicas   = fs.Int("replicas", 3, "replica count for the replica modes")
		kills      = fs.Int("kills", 3, "seed-drawn primary kills for the replica modes")
		migrations = fs.Int("migrations", 0, "seed-drawn key migrations (migrate mode; span mode runs migrate-during-span when > 0)")
		mode       = fs.String("mode", "fair", "fair | adversarial | service | fork | chaos | churn | span | migrate | migrate-auto | replica | replica-adversarial | replica-promokill")
		trace      = fs.Bool("trace", false, "print the full event trace (single-seed runs)")
	)
	fs.Parse(args)

	g, err := parseTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detsim: %v\n", err)
		return 2
	}
	lo, hi := *seed, *seed
	if *seeds != "" {
		if lo, hi, err = parseSeedRange(*seeds); err != nil {
			fmt.Fprintf(os.Stderr, "detsim: %v\n", err)
			return 2
		}
	}

	bad := 0
	for s := lo; s <= hi; s++ {
		single := lo == hi
		failed, summary := runSeed(g, s, *rounds, *crash, *churn, *shards, *replicas, *kills, *migrations, *mode, *trace && single)
		if failed {
			bad++
			fmt.Fprintf(out, "seed %d: FAIL %s\n", s, summary)
			fmt.Fprintf(out, "  replay: detsim -topology %s -seed %d -rounds %d -crash %d -churn %d -shards %d -replicas %d -kills %d -migrations %d -mode %s -trace\n",
				*topology, s, *rounds, *crash, *churn, *shards, *replicas, *kills, *migrations, *mode)
		} else if single {
			fmt.Fprintf(out, "seed %d: ok %s\n", s, summary)
		}
	}
	if lo != hi {
		fmt.Fprintf(out, "swept seeds %d..%d on %s (%s, %d crashes, %d churn): %d failing\n",
			lo, hi, g.Name(), *mode, *crash, *churn, bad)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runSeed executes one seed in the given mode and returns (failed,
// one-line summary).
func runSeed(g *graph.Graph, seed int64, rounds, crash, churn, shards, replicas, kills, migrations int, mode string, trace bool) (bool, string) {
	switch mode {
	case "fair":
		res := detsim.SweepRun(g, seed, rounds, crash, trace)
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("eats=%v steps=%d hash=%016x safety=%v locality=%v",
			res.Eats, res.Steps, res.TraceHash, res.SafetyViolations, res.LocalityViolations)
	case "adversarial":
		src, plan := crashPlan(g, seed, crash, rounds, 6)
		res := detsim.RunAdversarial(detsim.Config{
			Graph: g, Seed: seed, MaxSteps: rounds, Crashes: plan, Trace: trace, Source: src,
		})
		printTrace(trace, res.Trace)
		return len(res.SafetyViolations) > 0, fmt.Sprintf("eats=%v steps=%d hash=%016x safety=%v",
			res.Eats, res.Steps, res.TraceHash, res.SafetyViolations)
	case "service":
		src, plan := crashPlan(g, seed, crash, rounds, 6)
		res := detsim.RunService(detsim.ServiceConfig{
			Graph: g, Seed: seed, Rounds: rounds, Crashes: plan, Trace: trace, Source: src,
		})
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("submitted=%d granted=%d at_hand=%d surrendered=%d hash=%016x safety=%v history=%v starvation=%v",
			res.Submitted, res.Granted, res.AtHand, res.Surrendered, res.TraceHash, res.SafetyViolations, res.HistoryViolations, res.StarvationViolations)
	case "fork":
		src, plan := crashPlan(g, seed, crash, rounds, 0)
		res := detsim.RunFork(detsim.ForkConfig{
			Graph: g, Seed: seed, Rounds: rounds, Crashes: plan, Trace: trace, Source: src,
		})
		printTrace(trace, res.Trace)
		return len(res.SafetyViolations) > 0, fmt.Sprintf("eats=%v quiesced=%d hash=%016x safety=%v",
			res.Eats, res.QuiescedAt, res.TraceHash, res.SafetyViolations)
	case "chaos":
		// Seed-drawn chaos campaign: kills with restarts, leave/rejoin
		// pairs, a partition window, and default transport fault rates
		// (-crash = victims, -churn = membership pairs).
		res := detsim.SweepCampaign(g, seed, rounds, crash, churn, chaos.DefaultFaults(), trace)
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("eats=%v hash=%016x recoveries=%d faults=%d/%d/%d/%d safety=%v restarts=%v churn=%v",
			res.Eats, res.TraceHash, len(res.Recoveries),
			res.FaultsDropped, res.FaultsDuplicated, res.FaultsCorrupted, res.FaultsDelayed,
			res.SafetyViolations, res.RestartViolations, res.ChurnViolations)
	case "churn":
		// Seed-drawn membership churn: leave/rejoin pairs in the first
		// half, judged by every oracle including displaced-waiter
		// liveness (-churn = pair count; default 1).
		if churn <= 0 {
			churn = 1
		}
		res := detsim.SweepChurn(g, seed, rounds, churn, trace)
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("eats=%v hash=%016x leaves=%d joins=%d safety=%v restarts=%v churn=%v",
			res.Eats, res.TraceHash, res.Leaves, res.Joins,
			res.SafetyViolations, res.RestartViolations, res.ChurnViolations)
	case "span":
		// Cross-shard span harness: K shard substrates in lockstep under
		// one schedule source, judged by the atomicity oracles. Flavors
		// follow the flags: -churn draws ring leave/rejoin pairs, -crash
		// draws per-shard kill/restart campaigns, neither is the fair run.
		var res *detsim.SpanResult
		switch {
		case migrations > 0:
			res = detsim.SweepSpanMigrate(g, seed, rounds, shards, migrations, trace)
		case churn > 0:
			res = detsim.SweepSpanChurn(g, seed, rounds, shards, churn, trace)
		case crash > 0:
			res = detsim.SweepSpanChaos(g, seed, rounds, shards, crash, trace)
		default:
			res = detsim.SweepSpan(g, seed, rounds, shards, trace)
		}
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("spans=%d commits=%d rollbacks=%d displaced=%d hash=%016x partial=%v overlap=%v orphan=%v safety=%v history=%v",
			res.Spans, res.Commits, res.Rollbacks, res.Displaced, res.TraceHash,
			res.PartialCommits, res.OverlapViolations, res.OrphanedSpans,
			res.SafetyViolations, res.HistoryViolations)
	case "migrate", "migrate-auto":
		// Key-migration harness: the fence/drain/commit protocol under a
		// hot-key workload, judged by the dual-grant, lost-waiter, and
		// override-divergence oracles. Flavors follow the flags: -crash
		// draws per-shard kill/restart campaigns over the plan;
		// migrate-auto runs the closed control loop instead of a plan.
		if migrations <= 0 {
			migrations = 3
		}
		var res *detsim.MigrateResult
		switch {
		case mode == "migrate-auto":
			res = detsim.SweepMigrateAuto(g, seed, rounds, shards, trace)
		case crash > 0:
			res = detsim.SweepMigrateChaos(g, seed, rounds, shards, migrations, crash, trace)
		default:
			res = detsim.SweepMigrate(g, seed, rounds, shards, migrations, trace)
		}
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("granted=%d migrations=%d/%d aborted=%d bounced=%d+%d gen=%d hash=%016x dual=%v lost=%v diverge=%v safety=%v history=%v",
			res.Granted, res.Migrations, res.MigrationsStarted, res.MigrationsAborted,
			res.FenceBounced, res.Bounced, res.Generation, res.TraceHash,
			res.DualGrants, res.LostWaiters, res.Divergence,
			res.SafetyViolations, res.HistoryViolations)
	case "replica", "replica-adversarial", "replica-promokill":
		// Shard-replica failover harness: one shard's primary plus hot
		// standbys under seed-drawn kill-primary campaigns (-replicas,
		// -kills; topology unused). The adversarial flavor adds standby
		// kills and replication stalls; promokill chases each primary
		// kill with a strike on the standby the promotion chose.
		var res *detsim.ReplicaResult
		switch mode {
		case "replica-adversarial":
			res = detsim.SweepReplicaAdversarial(seed, rounds, replicas, kills, trace)
		case "replica-promokill":
			res = detsim.SweepReplicaKillDuringPromotion(seed, rounds, replicas, kills, trace)
		default:
			res = detsim.SweepReplica(seed, rounds, replicas, kills, trace)
		}
		printTrace(trace, res.Trace)
		return res.Failed(), fmt.Sprintf("grants=%d promotions=%d/%d fenced=%d dropped=%d holds=%d blackout=%d/max%d hash=%016x dual=%v excl=%v undrained=%v",
			res.Grants, res.Promotions, res.Promotions+res.FailedPromotions,
			res.FencedGrants, res.DroppedRecords, res.Holds,
			res.BlackoutRounds, res.MaxBlackout, res.TraceHash,
			res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
	default:
		fmt.Fprintf(os.Stderr, "detsim: unknown mode %q\n", mode)
		os.Exit(2)
		return false, ""
	}
}

// crashPlan seeds the run's schedule source and draws its crash plan
// from it first: crash victims in the first third of the run, with
// malicious windows up to maxWindow steps.
func crashPlan(g *graph.Graph, seed int64, crash, rounds, maxWindow int) (detsim.Source, []detsim.Crash) {
	src := detsim.NewRand(seed)
	if crash <= 0 {
		return src, nil
	}
	return src, detsim.RandomCrashes(src, g, crash, rounds/3, maxWindow)
}

func printTrace(enabled bool, lines []string) {
	if !enabled {
		return
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// parseTopology decodes name:size strings like ring:6 or grid:3x3.
func parseTopology(s string) (*graph.Graph, error) {
	name, size, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("topology %q: want name:size, e.g. ring:6 or grid:3x3", s)
	}
	dims := func() (int, int, error) {
		r, c, ok := strings.Cut(size, "x")
		if !ok {
			return 0, 0, fmt.Errorf("topology %q: want %s:RxC", s, name)
		}
		ri, err1 := strconv.Atoi(r)
		ci, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil || ri < 1 || ci < 1 {
			return 0, 0, fmt.Errorf("topology %q: bad dimensions", s)
		}
		return ri, ci, nil
	}
	switch name {
	case "grid":
		r, c, err := dims()
		if err != nil {
			return nil, err
		}
		return graph.Grid(r, c), nil
	case "torus":
		r, c, err := dims()
		if err != nil {
			return nil, err
		}
		return graph.Torus(r, c), nil
	}
	n, err := strconv.Atoi(size)
	if err != nil || n < 2 {
		return nil, fmt.Errorf("topology %q: bad size", s)
	}
	switch name {
	case "ring":
		return graph.Ring(n), nil
	case "star":
		return graph.Star(n), nil
	case "path":
		return graph.Path(n), nil
	case "complete":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("topology %q: unknown family %q", s, name)
	}
}

// parseSeedRange decodes "N..M" (inclusive).
func parseSeedRange(s string) (int64, int64, error) {
	a, b, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, fmt.Errorf("seed range %q: want N..M", s)
	}
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return 0, 0, fmt.Errorf("seed range %q: want N..M with M >= N", s)
	}
	return lo, hi, nil
}
