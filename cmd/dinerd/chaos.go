package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/chaos"
	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// recovery tracks one crashed node from fault to first post-revival
// meal: revive is how long the node stayed down, converge how long the
// revived incarnation took to complete a meal (-1 if it never did).
type recovery struct {
	node     graph.ProcID
	kind     chaos.ActionKind
	revive   time.Duration
	converge time.Duration
}

// chaosCmd runs a seeded chaos campaign against a live, in-process
// dinerd (a one-shard router): client load over the real HTTP API while the campaign kills
// nodes, revives them (clean or with garbage state), opens partition
// windows, and injects transport faults on every frame. A sampled
// watchdog watches for adjacent eaters during the run; the verdict
// comes from the authoritative post-run checks (session overlaps, lock
// history, every victim eating again). Exit status 1 on any violation,
// so campaigns are scriptable; the same -seed replays the same plan.
func chaosCmd(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		topology  = fs.String("topology", "grid", "grid|ring|path|torus|complete")
		rows      = fs.Int("rows", 3, "grid/torus rows")
		cols      = fs.Int("cols", 3, "grid/torus cols")
		n         = fs.Int("n", 8, "process count (ring/path/complete)")
		seed      = fs.Int64("seed", 1, "campaign seed (same seed, same plan)")
		duration  = fs.Duration("duration", 15*time.Second, "campaign duration")
		kills     = fs.Int("kills", 2, "crash victims (each gets a restart)")
		churn     = fs.Int("churn", 0, "leave/rejoin victim pairs (runtime membership churn)")
		drop      = fs.Float64("drop", 0.10, "per-frame drop probability")
		dup       = fs.Float64("dup", 0.05, "per-frame duplication probability")
		corrupt   = fs.Float64("corrupt", 0.05, "per-frame payload-corruption probability")
		delay     = fs.Float64("delay", 0.10, "per-frame channel-stall probability")
		maxDelay  = fs.Int("max-delay", 3, "maximum stall length in ticks")
		reorder   = fs.Float64("reorder", 0.10, "per-frame reorder (1-tick stall) probability")
		shards    = fs.Int("shards", 2, "shard count for the kill-primary campaign (-replicas > 0)")
		replicas  = fs.Int("replicas", 0, "hot standbys per shard; > 0 switches to the kill-primary failover campaign")
		rebalance = fs.Bool("rebalance", false, "run the hot-key rebalancing controller under a zipf workload and aim strikes at the migration source shard (needs -replicas > 0)")
		garbage   = fs.Bool("garbage", true, "revive victims with arbitrary state instead of clean")
		supmode   = fs.Bool("supervise", false, "let the self-healing supervisor revive victims instead of the script")
		transport = fs.String("transport", "http", "load transport: http or wire (admin always HTTP; wire mode also injects the fault profile into framed connections)")
		clients   = fs.Int("clients", 4, "concurrent load clients")
		tick      = fs.Duration("tick", time.Millisecond, "substrate gossip tick (campaign time unit)")
		hold      = fs.Duration("hold", 3*time.Millisecond, "lease hold time per grant")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-acquire wait budget")
	)
	fs.Parse(args)

	g, err := buildTopology(*topology, *n, *rows, *cols)
	if err != nil {
		fail(err)
	}
	faults := chaos.Faults{
		Drop: *drop, Duplicate: *dup, Corrupt: *corrupt,
		Delay: *delay, MaxDelayTicks: *maxDelay, Reorder: *reorder,
	}
	horizon := int(*duration / *tick)
	if *rebalance && *replicas == 0 {
		fail(fmt.Errorf("-rebalance needs -replicas > 0: the controller lives in the router, and the campaign's point is killing a migration's source primary"))
	}
	if *replicas > 0 {
		chaosFailover(failoverOpts{
			graph: g, seed: *seed, duration: *duration, tick: *tick,
			shards: *shards, replicas: *replicas, kills: *kills,
			faults: faults, clients: *clients, hold: *hold, timeout: *timeout,
			rebalance: *rebalance,
		})
		return
	}
	camp := chaos.Random(*seed, g, horizon, *kills, *churn, faults)

	hist := lockservice.NewHistory()
	cfg := lockservice.Config{
		Graph:     g,
		Seed:      *seed,
		TickEvery: *tick,
		Faults:    camp.Injector(),
		History:   hist,
	}
	if *supmode {
		cfg.Supervise = &lockservice.SupervisorConfig{Garbage: *garbage}
	}

	// In wire mode the load swarm speaks the framed protocol, and the
	// same fault profile that torments the diners substrate is injected
	// into every outbound frame: the campaign exercises both the
	// arbitration layer and the transport's own recovery (CRC drops,
	// redials, retries). Admin traffic stays on HTTP — crash/restart is
	// the operator surface, deliberately facade-only.
	wireAddr := ""
	switch *transport {
	case "http":
	case "wire":
		wireAddr = "127.0.0.1:0"
	default:
		fail(fmt.Errorf("unknown -transport %q (want http or wire)", *transport))
	}
	svc := startService(lockservice.RouterConfig{Base: cfg}, "127.0.0.1:0", wireAddr,
		wire.ServerConfig{Faults: chaos.NewInjector(*seed+101, faults), FaultTick: *tick})
	srv, baseURL := svc.rt.Shard(0), svc.url
	var wireClient *wire.Client
	if svc.ws != nil {
		wireClient = wire.NewClient(svc.wireAddr)
		wireClient.OpTimeout = time.Second // bound waiters orphaned by dropped frames
		defer wireClient.Close()
	}

	fmt.Printf("chaos: seed=%d %s (%d workers, %d locks) for %v on %s via %s\n",
		*seed, g.Name(), g.N(), g.EdgeCount(), *duration, baseURL, *transport)
	fmt.Printf("chaos: faults drop=%.2f dup=%.2f corrupt=%.2f delay=%.2f(max %d ticks) reorder=%.2f\n",
		faults.Drop, faults.Duplicate, faults.Corrupt, faults.Delay, faults.MaxDelayTicks, faults.Reorder)
	for _, a := range camp.Actions {
		fmt.Printf("chaos:   t+%-8v %s\n", time.Duration(a.At)*(*tick), a)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	var wg sync.WaitGroup
	edges := svc.rt.Status().Edges
	tally := chaosSwarm(ctx, &wg, *clients, *seed, *hold, *timeout,
		func() loadSession {
			if wireClient != nil {
				return wireSession{wireClient}
			}
			return httpSession{lockservice.NewClient(baseURL)}
		},
		func(rng *rand.Rand) func() string {
			return func() string { return edges[rng.Intn(len(edges))] }
		})

	// Sampled watchdog: advisory only — per-node snapshots are not an
	// atomic cut, so a sampled "overlap" can be a tearing artifact. The
	// authoritative eating-exclusion verdict is the post-run session
	// check below.
	var sampledOverlaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		nw := srv.Network()
		for ctx.Err() == nil {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			table := nw.Table()
			for _, e := range g.Edges() {
				a, b := table[e.A], table[e.B]
				if a.State == core.Eating && b.State == core.Eating && !a.Dead && !b.Dead {
					sampledOverlaps.Add(1)
				}
			}
		}
	}()

	// Campaign executor: replay the plan on the wall clock, one tick =
	// -tick. Crashes and restarts go through the HTTP admin API (the
	// surface an operator would use); partitions poke the substrate
	// directly — there is deliberately no HTTP endpoint for them.
	recoveriesPtr := runCampaign(ctx, camp, srv, baseURL, *tick, *garbage, *supmode, &wg)

	<-ctx.Done()
	cancel()
	wg.Wait()
	recoveries := *recoveriesPtr
	svc.close(5 * time.Second)

	// Authoritative verdicts, computed after the network has stopped.
	overlaps := srv.Network().OverlappingNeighborSessions()
	histViolations := hist.Check(g)
	var unrecovered []string
	for _, r := range recoveries {
		if r.converge < 0 {
			unrecovered = append(unrecovered, fmt.Sprintf("node %d (%s) never ate after revival", r.node, r.kind))
		}
	}

	m := srv.Metrics()
	d, du, co, de := srv.Network().FaultsInjected()
	summary := stats.NewTable("chaos campaign summary", "metric", "value")
	summary.AddRow("attempts", tally.attempts.Load())
	summary.AddRow("grants", tally.grants.Load())
	summary.AddRow("availability", fmt.Sprintf("%.1f%%", 100*float64(tally.grants.Load())/float64(max64(tally.attempts.Load(), 1))))
	summary.AddRow("rejects (expected: 408/409/429/503)", tally.rejects.Load())
	summary.AddRow("fenced releases (404 after restart)", tally.fenced.Load())
	summary.AddRow("unexpected failures", tally.failures.Load())
	summary.AddRow("node restarts", m.NodeRestarts.Load())
	summary.AddRow("leases fenced", m.LeasesFenced.Load())
	summary.AddRow("faults drop/dup/corrupt/delay", fmt.Sprintf("%d/%d/%d/%d", d, du, co, de))
	summary.AddRow("frames lost (faults+partitions)", srv.Network().MessagesLost())
	if svc.ws != nil {
		st := svc.ws.Stats()
		summary.AddRow("wire faults drop/dup/corrupt/stall", fmt.Sprintf("%d/%d/%d/%d",
			st.FaultsDropped.Load(), st.FaultsDuplicate.Load(), st.FaultsCorrupted.Load(), st.FaultsStalled.Load()))
		summary.AddRow("wire client retries", wireClient.Stats().Retries.Load())
	}
	summary.AddRow("sampled overlaps (advisory)", sampledOverlaps.Load())
	summary.Render(os.Stdout)

	if len(recoveries) > 0 {
		rec := stats.NewTable("per-victim recovery", "node", "fault", "down", "converge")
		for _, r := range recoveries {
			conv := "never"
			if r.converge >= 0 {
				conv = r.converge.Round(time.Millisecond).String()
			}
			rec.AddRow(int(r.node), r.kind.String(), r.revive.Round(time.Millisecond).String(), conv)
		}
		rec.Render(os.Stdout)
	}

	bad := false
	for _, v := range overlaps {
		bad = true
		fmt.Printf("chaos: EATING-EXCLUSION VIOLATION: %s\n", v)
	}
	for _, v := range histViolations {
		bad = true
		fmt.Printf("chaos: LOCK-HISTORY VIOLATION: %s\n", v)
	}
	for _, v := range unrecovered {
		bad = true
		fmt.Printf("chaos: LIVENESS VIOLATION: %s\n", v)
	}
	if tally.failures.Load() > 0 {
		bad = true
		fmt.Printf("chaos: %d unexpected client failures\n", tally.failures.Load())
	}
	if bad {
		fmt.Printf("chaos: FAIL (replay: dinerd chaos -seed %d)\n", *seed)
		os.Exit(1)
	}
	fmt.Println("chaos: ok — exclusion held, history linearizable, every victim recovered")
}

// swarmTally is what a chaos campaign's client swarm observed.
type swarmTally struct {
	attempts, grants atomic.Int64
	rejects          atomic.Int64 // 408/409/429/503 and exhausted wire retries: expected under chaos
	fenced           atomic.Int64 // releases that hit a revoked lease (404): expected after restarts and gapped promotions
	failures         atomic.Int64
}

// chaosSwarm starts clients workers that each acquire one drawn lock,
// hold it, and release it until ctx ends, classifying every outcome —
// the load both campaigns run under. Each worker gets its own session
// and its own seeded draw function. The tally is complete once wg has
// been waited on.
func chaosSwarm(ctx context.Context, wg *sync.WaitGroup, clients int, seed int64, hold, timeout time.Duration,
	session func() loadSession, sampler func(*rand.Rand) func() string) *swarmTally {
	t := &swarmTally{}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			draw := sampler(rand.New(rand.NewSource(seed + int64(w)*7919)))
			sess := session()
			for ctx.Err() == nil {
				t.attempts.Add(1)
				id, err := sess.Acquire(ctx, []string{draw()}, timeout)
				if err != nil {
					if isExpectedChaosErr(err) {
						t.rejects.Add(1)
					} else if ctx.Err() == nil {
						t.failures.Add(1)
					}
					continue
				}
				t.grants.Add(1)
				time.Sleep(hold)
				if err := sess.Release(context.WithoutCancel(ctx), id); err != nil {
					switch {
					case errCode(err) == 404:
						t.fenced.Add(1)
					case isExpectedChaosErr(err):
						t.rejects.Add(1)
					default:
						t.failures.Add(1)
					}
				}
			}
		}(w)
	}
	return t
}

// runCampaign spawns the executor and per-victim recovery watchers;
// the returned slice is populated by the watchers and must be read
// only after wg.Wait().
func runCampaign(ctx context.Context, camp chaos.Campaign, srv *lockservice.Server,
	baseURL string, tick time.Duration, garbage, supervised bool, wg *sync.WaitGroup) *[]recovery {
	recoveries := &[]recovery{}
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := lockservice.NewClient(baseURL)
		nw := srv.Network()
		start := time.Now()
		for _, a := range camp.Actions {
			at := start.Add(time.Duration(a.At) * tick)
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(at)):
			}
			switch a.Kind {
			case chaos.ActKill, chaos.ActMaliciousCrash:
				steps := 0
				if a.Kind == chaos.ActMaliciousCrash {
					steps = a.Steps
				}
				baseline := nw.Eats()[a.Node]
				if err := c.Crash(ctx, int(a.Node), steps); err != nil {
					continue // drained mid-campaign
				}
				watchRecovery(ctx, nw, a, baseline, &mu, recoveries, wg)
			case chaos.ActRestartClean, chaos.ActRestartGarbage:
				if supervised {
					continue // the supervisor owns revival
				}
				_, _ = c.Restart(ctx, int(a.Node), a.Kind == chaos.ActRestartGarbage || garbage)
			case chaos.ActLeave:
				// A leave is a crash the graph absorbs: the node's edges
				// vanish and waiters it blocked run free. The watcher's
				// phase 1 completes when the paired join revives the node
				// as a new incarnation.
				baseline := nw.Eats()[a.Node]
				if _, err := c.Leave(ctx, int(a.Node)); err != nil {
					continue
				}
				watchRecovery(ctx, nw, a, baseline, &mu, recoveries, wg)
			case chaos.ActJoin:
				_, _ = c.Join(ctx, int(a.Node))
			case chaos.ActPartition:
				nw.SetPartitioned(a.Node, true)
			case chaos.ActHeal:
				nw.SetPartitioned(a.Node, false)
			}
		}
	}()
	return recoveries
}

// watchRecovery polls one crashed node: down time ends when a restart
// revives it (Dead clears), convergence when the revived incarnation
// finishes a meal. converge stays -1 if the campaign ends first. The
// watcher asks for that meal itself: locks granted at hand need none, so
// client load alone may never make the revived node hungry, and the
// paper lets needs() turn true for no reason at all.
func watchRecovery(ctx context.Context, nw *msgpass.Network, a chaos.Action, baseline int64,
	mu *sync.Mutex, out *[]recovery, wg *sync.WaitGroup) {
	crashedAt := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := recovery{node: a.Node, kind: a.Kind, revive: -1, converge: -1}
		defer func() {
			mu.Lock()
			*out = append(*out, r)
			mu.Unlock()
		}()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for r.revive < 0 { // phase 1: still down (or mid-malicious-window)
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			snap := nw.Snapshot(a.Node)
			if !snap.Dead && snap.Incarnation > 0 {
				r.revive = time.Since(crashedAt)
			}
		}
		revivedAt := time.Now()
		for { // phase 2: revived, waiting for a complete meal
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if nw.Eats()[a.Node] > baseline {
				r.converge = time.Since(revivedAt)
				return
			}
			// Re-asserted every poll: the server's pump step resets
			// hunger to queue state whenever it runs.
			nw.SetNeeds(a.Node, true)
			nw.Wake(a.Node)
		}
	}()
}

// isExpectedChaosErr reports rejections the campaign treats as load
// shedding rather than bugs: waits that timed out (408), a ring
// generation that moved under a failover or migration with the client's
// retries exhausted (409), backpressure (429), windows where every
// candidate home was dead or the shard leaderless (503), and — in
// wire mode, where the fault profile is injected into the framed
// transport itself — operations that exhausted their retries against
// dropped or corrupted frames. The verdict that matters is computed
// after the run: exclusion, history linearizability, and recovery.
func isExpectedChaosErr(err error) bool {
	switch errCode(err) {
	case 408, 409, 429, 503:
		return true
	}
	return errors.Is(err, wire.ErrTransport) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
