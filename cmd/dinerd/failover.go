package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"mcdp/internal/chaos"
	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// failoverOpts parameterizes one kill-primary chaos campaign.
type failoverOpts struct {
	graph    *graph.Graph
	seed     int64
	duration time.Duration
	tick     time.Duration
	shards   int
	replicas int
	kills    int
	faults   chaos.Faults
	clients  int
	hold     time.Duration
	timeout  time.Duration
	// rebalance runs the hot-key controller during the campaign: the
	// load becomes a zipf swarm whose head colocates on one shard, the
	// controller migrates keys off it live, and strikes preferentially
	// kill that shard's primary — a failover landing mid-migration.
	rebalance bool
}

// strike records one executed kill-primary action.
type strike struct {
	shard     int
	at        time.Duration // offset into the campaign
	took      time.Duration // kill to promoted-and-settled (-1: never)
	recovered bool
}

// chaosFailover is the kill-primary campaign: a replicated router under
// client load while scripted strikes halt shard primaries and the
// supervisor promotes standbys. Each strike is executed through
// Router.Failover — the same kill switch the admin endpoint uses — so
// what is measured is the production detection + promotion path, and
// the verdict demands 100% recovery: every executed strike must end
// with a settled successor. Post-run, eating exclusion is checked on
// EVERY server each shard ever owned (deposed primaries granted leases
// too) and the shard-0 lock history must be linearizable. Exit 1 on
// any violation; the same -seed replays the same plan.
func chaosFailover(o failoverOpts) {
	hist := lockservice.NewHistory()
	camp := chaos.RandomFailover(o.seed, o.shards, int(o.duration/o.tick), o.kills, o.faults)
	var rebalCfg *control.Config
	if o.rebalance {
		// A short period and cooldown so migrations keep firing for the
		// strikes to land on; every decision is logged for the replay.
		// The long half-life and low MinLoad keep the sensors trusted
		// even when the race detector throttles the grant rate to a few
		// per second — at 250ms/32 the -race smoke decays its own
		// evidence away and the campaign goes vacuous.
		rebalCfg = &control.Config{
			Interval:   50 * time.Millisecond,
			HalfLife:   2 * time.Second,
			Hysteresis: 1.2,
			MaxMoves:   2,
			TopK:       24,
			MinLoad:    8,
			Cooldown:   500 * time.Millisecond,
			Logf: func(format string, args ...any) {
				fmt.Printf("chaos: "+format+"\n", args...)
			},
		}
	}
	svc := startService(lockservice.RouterConfig{
		Shards:    o.shards,
		Replicas:  o.replicas,
		Rebalance: rebalCfg,
		Base: lockservice.Config{
			Graph:     o.graph,
			Seed:      o.seed,
			TickEvery: o.tick,
			Faults:    camp.Injector(),
			History:   hist,
		},
		Failover: lockservice.FailoverConfig{
			CheckEvery:     10 * time.Millisecond,
			Misses:         2,
			Cooloff:        500 * time.Millisecond,
			AckTimeout:     100 * time.Millisecond,
			HeartbeatEvery: 20 * time.Millisecond,
			StaleAfter:     250 * time.Millisecond,
			Logf: func(format string, args ...any) {
				fmt.Printf("chaos: "+format+"\n", args...)
			},
		},
	}, "127.0.0.1:0", "", wire.ServerConfig{})
	rt, baseURL := svc.rt, svc.url

	fmt.Printf("chaos: failover campaign seed=%d %d x %s shards, %d standbys each, %d strikes over %v on %s\n",
		o.seed, o.shards, o.graph.Name(), o.replicas, len(camp.Actions), o.duration, baseURL)
	for _, a := range camp.Actions {
		fmt.Printf("chaos:   t+%-8v %s shard %d\n", time.Duration(a.At)*o.tick, a.Kind, a.Node)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	edges := rt.Status().Edges
	// The rebalance campaign swaps the uniform edge draws for a zipf
	// swarm over a named keyspace: the catalog's shard-grouped rank
	// order colocates the hot head on one shard, which makes that shard
	// both the controller's migration source and the strikes' target.
	var cat *shardCatalog
	hotShard := -1
	if o.rebalance {
		cat = svc.catalog(192)
		hotShard = cat.shards[0]
	}

	// Client load: acquire/hold/release over the whole catalog. The
	// client's own machinery absorbs the failovers — 409 retries after
	// ring bumps, Retry-After honored during promotions — so anything
	// besides timeouts and shed load counts against the verdict.
	var wg sync.WaitGroup
	tally := chaosSwarm(ctx, &wg, o.clients, o.seed, o.hold, o.timeout,
		func() loadSession {
			c := lockservice.NewClient(baseURL)
			_, _ = c.Ring(ctx) // seed the generation the acquires assert
			return httpSession{c}
		},
		func(rng *rand.Rand) func() string {
			if cat != nil {
				return cat.sampler(rng, distOpts{dist: "zipf", skew: 1.05})
			}
			return func() string { return edges[rng.Intn(len(edges))] }
		})

	// Strike executor: replay the plan on the wall clock. A strike on a
	// shard with no standby left is reassigned to the lowest-indexed
	// shard that still has one (the router refuses to kill a lone
	// primary — that refusal is load-bearing, not a campaign failure).
	strikes := make([]strike, 0, len(camp.Actions))
	start := time.Now()
	for i, a := range camp.Actions {
		at := start.Add(time.Duration(a.At) * o.tick)
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(at)):
		}
		if ctx.Err() != nil {
			break
		}
		target := int(a.Node)
		if hotShard >= 0 && i%2 == 0 {
			// Rebalance campaign: every other strike hits the hot shard —
			// the shard the controller is actively draining keys FROM —
			// so failovers land mid-migration, not beside it.
			target = hotShard
		}
		if rt.ShardInfo(target).Standbys == 0 {
			reassigned := -1
			for s := 0; s < o.shards; s++ {
				if rt.ShardInfo(s).Standbys > 0 {
					reassigned = s
					break
				}
			}
			if reassigned == -1 {
				fmt.Printf("chaos: strike on shard %d skipped: no shard has a standby left\n", target)
				continue
			}
			fmt.Printf("chaos: strike reassigned shard %d -> %d (no standby left)\n", target, reassigned)
			target = reassigned
		}
		st := strike{shard: target, at: time.Since(start), took: -1}
		killAt := time.Now()
		if err := rt.Failover(target, 15*time.Second); err != nil {
			fmt.Printf("chaos: RECOVERY FAILURE: shard %d: %v\n", target, err)
		} else {
			st.took = time.Since(killAt)
			st.recovered = true
		}
		strikes = append(strikes, st)
	}

	<-ctx.Done()
	cancel()
	wg.Wait()
	svc.close(5 * time.Second)

	// Authoritative verdicts. Exclusion must hold on every server a
	// shard ever owned: a deposed primary that granted before its fence
	// is as much a suspect as the survivor.
	var overlaps []string
	var adopted, restarts int64
	for s := 0; s < o.shards; s++ {
		for _, srv := range rt.ShardServers(s) {
			overlaps = append(overlaps, srv.Network().OverlappingNeighborSessions()...)
			adopted += srv.Metrics().LeasesAdopted.Load()
			restarts += srv.Metrics().NodeRestarts.Load()
		}
	}
	histViolations := hist.Check(o.graph)
	recovered := 0
	for _, s := range strikes {
		if s.recovered {
			recovered++
		}
	}

	m := rt.Metrics()
	promos := m.PromotionDurations()
	summary := stats.NewTable("failover campaign summary", "metric", "value")
	summary.AddRow("attempts", tally.attempts.Load())
	summary.AddRow("grants", tally.grants.Load())
	summary.AddRow("availability", fmt.Sprintf("%.1f%%", 100*float64(tally.grants.Load())/float64(max64(tally.attempts.Load(), 1))))
	summary.AddRow("rejects (expected under failover)", tally.rejects.Load())
	summary.AddRow("fenced releases (404: lease TTL-drained by a gapped promotion)", tally.fenced.Load())
	summary.AddRow("unexpected failures", tally.failures.Load())
	summary.AddRow("strikes executed", len(strikes))
	summary.AddRow("strikes recovered", recovered)
	summary.AddRow("promotions (router metric)", m.Failovers.Load())
	summary.AddRow("leaderless rejections (503)", m.LeaderlessRejections.Load())
	summary.AddRow("leases adopted", adopted)
	if o.rebalance {
		summary.AddRow("rebalances committed", m.Rebalances.Load())
		summary.AddRow("rebalances aborted (fence rolled back)", m.RebalancesAborted.Load())
		summary.AddRow("migration fence bounces (409)", m.MigrationFences.Load())
	}
	if len(promos) > 0 {
		summary.AddRow("promotion p50", quantileDuration(promos, 0.50).Round(time.Millisecond).String())
		summary.AddRow("promotion p99 (MTTR)", quantileDuration(promos, 0.99).Round(time.Millisecond).String())
	}
	summary.Render(os.Stdout)

	if len(strikes) > 0 {
		tbl := stats.NewTable("per-strike recovery", "shard", "at", "kill->settled")
		for _, s := range strikes {
			took := "never"
			if s.recovered {
				took = s.took.Round(time.Millisecond).String()
			}
			tbl.AddRow(s.shard, s.at.Round(time.Millisecond).String(), took)
		}
		tbl.Render(os.Stdout)
	}

	bad := false
	if recovered != len(strikes) {
		bad = true
		fmt.Printf("chaos: RECOVERY VIOLATION: %d/%d strikes recovered\n", recovered, len(strikes))
	}
	for _, v := range overlaps {
		bad = true
		fmt.Printf("chaos: EATING-EXCLUSION VIOLATION: %s\n", v)
	}
	for _, v := range histViolations {
		bad = true
		fmt.Printf("chaos: LOCK-HISTORY VIOLATION: %s\n", v)
	}
	if tally.failures.Load() > 0 {
		bad = true
		fmt.Printf("chaos: %d unexpected client failures\n", tally.failures.Load())
	}
	if o.rebalance && m.Rebalances.Load()+m.RebalancesAborted.Load() == 0 {
		// If the controller never even started a migration there was
		// nothing for the strikes to land on: the campaign proved nothing.
		bad = true
		fmt.Printf("chaos: VACUOUS CAMPAIGN: the controller never started a migration\n")
	}
	if bad {
		fmt.Printf("chaos: FAIL (replay: dinerd chaos -replicas %d -shards %d -seed %d -kills %d%s)\n",
			o.replicas, o.shards, o.seed, o.kills, map[bool]string{true: " -rebalance"}[o.rebalance])
		os.Exit(1)
	}
	if o.rebalance {
		fmt.Printf("chaos: ok — %d/%d strikes recovered, %d migrations committed (%d aborted) under fire, exclusion held on %d servers, history linearizable\n",
			recovered, len(strikes), m.Rebalances.Load(), m.RebalancesAborted.Load(), o.shards*(1+o.replicas))
		return
	}
	fmt.Printf("chaos: ok — %d/%d strikes recovered, exclusion held on %d servers, history linearizable\n",
		recovered, len(strikes), o.shards*(1+o.replicas))
}

// quantileDuration reads a quantile from raw durations (copy-sorts).
func quantileDuration(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return time.Duration(stats.Quantile(xs, q) * float64(time.Second))
}
