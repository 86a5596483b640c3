package detsim

import (
	"fmt"
	"hash/fnv"
	"time"

	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
)

// ClusterConfig describes the K-shard lockstep substrate the span and
// migration harnesses both run over: K independent diners shards — each
// a full driven msgpass substrate with its own session arbiter — behind
// one lockservice.RouterCore, all advanced by one schedule Source.
type ClusterConfig struct {
	// Graph is each shard's diners topology. Required.
	Graph *graph.Graph
	// Shards is the shard count (default 2).
	Shards int
	// Vnodes is the placement ring's virtual-node count per shard
	// (0 = shard.DefaultVnodes).
	Vnodes int
	// Seed names the run: it seeds the ring, each shard's substrate
	// (offset per shard), and — unless Source overrides it — the one
	// schedule source every decision draws from.
	Seed int64
	// Rounds is the lockstep round count (default 200).
	Rounds int
	// Adversarial switches every shard from a fair round to AdvSteps
	// free adversarial steps per round (safety-only schedules).
	Adversarial bool
	// AdvSteps is the adversarial steps per shard per round (default 8).
	AdvSteps int
	// KeyCount is the synthetic keyspace size (default 24).
	KeyCount int
	// QueueLimit is each arbiter's per-node queue capacity (default 8).
	QueueLimit int
	// Crashes, Restarts, Leaves, and Joins are per-shard fault plans
	// (index = shard; nil or short slices mean no plan for that shard).
	Crashes  [][]Crash
	Restarts [][]Restart
	Leaves   [][]Leave
	Joins    [][]Join
	// Faults holds per-shard transport fault injectors.
	Faults []msgpass.FaultInjector
	// Trace retains the coordinator trace in the result.
	Trace bool
	// Source overrides the schedule source; nil uses NewRand(Seed).
	Source Source
}

// sweepCluster is the cluster every Sweep* run is built on; src, when
// non-nil, is the source the caller also draws its fault plans from, so
// one seed names plan and schedule alike.
func sweepCluster(g *graph.Graph, seed int64, rounds, shards int, trace bool, src Source) ClusterConfig {
	return ClusterConfig{Graph: g, Shards: shards, Seed: seed, Rounds: rounds, Trace: trace, Source: src}
}

// crashCampaign draws a per-shard node fault plan from c.Source: kills
// (malicious windows up to maxMal steps) within the first window
// rounds, each followed delay..delay+spread-1 rounds later by a clean
// or garbage restart.
func (c *ClusterConfig) crashCampaign(kills, window, maxMal, delay, spread int) {
	c.Crashes = make([][]Crash, c.Shards)
	c.Restarts = make([][]Restart, c.Shards)
	for s := range c.Crashes {
		c.Crashes[s] = RandomCrashes(c.Source, c.Graph, kills, window, maxMal)
		for _, k := range c.Crashes[s] {
			c.Restarts[s] = append(c.Restarts[s], Restart{
				Node:    k.Node,
				Round:   k.Round + delay + c.Source.Intn(spread),
				Garbage: c.Source.Intn(2) == 1,
			})
		}
	}
}

// ClusterResult is the part of a run's outcome the cluster itself
// accounts for.
type ClusterResult struct {
	Seed   int64
	Rounds int
	Shards int
	// TraceHash combines the coordinator's event hash with every
	// shard's trace hash; equal hashes mean the same execution.
	TraceHash uint64
	// Trace is the coordinator's event trace (only with Trace).
	Trace []string
	// SafetyViolations concatenates every shard's eating-exclusion
	// violations, HistoryViolations every shard's lock-history
	// linearizability violations, both shard-prefixed.
	SafetyViolations  []string
	HistoryViolations []string
	// LeaseViolations concatenates every shard's lease-oracle findings
	// (Result.LeaseViolations), shard-prefixed.
	LeaseViolations []string
}

// record appends one violation to list, which holds at most maxRecorded.
func record(list *[]string, format string, args ...any) {
	if len(*list) < maxRecorded {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

// cluster is the running K-shard substrate: per shard a runner, the
// lockservice.ShardCore over it and its arbiter's lock history; the
// Router's core over them, its migrations in flight and the key
// catalog; the schedule source and the coordinator trace.
type cluster struct {
	cfg       ClusterConfig
	src       Source
	router    *lockservice.RouterCore
	runners   []*runner
	cores     []*lockservice.ShardCore
	hists     []*lockservice.History
	migrating []*migration // in fence order
	clients   []*client    // in submit order
	keys      []string
	h         *trace
}

func newCluster(cfg ClusterConfig, what string) *cluster {
	if cfg.Graph == nil {
		panic("detsim: ClusterConfig.Graph is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 200
	}
	if cfg.AdvSteps <= 0 {
		cfg.AdvSteps = 8
	}
	if cfg.KeyCount <= 0 {
		cfg.KeyCount = 24
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 8
	}
	src := cfg.Source
	if src == nil {
		src = NewRand(cfg.Seed)
	}
	c := &cluster{
		cfg:    cfg,
		src:    src,
		router: lockservice.NewRouterCore(uint64(cfg.Seed)+1, cfg.Vnodes, cfg.Shards, roundEnd(-1)),
		h:      newTrace(cfg.Trace),
	}
	for s := 0; s < cfg.Shards; s++ {
		rcfg := Config{
			Graph:  cfg.Graph,
			Seed:   cfg.Seed + int64(s)*101,
			Rounds: cfg.Rounds,
			Hungry: make([]bool, cfg.Graph.N()), // demand arrives with sessions
			Source: src,
		}
		rcfg.Crashes, rcfg.Restarts = planFor(cfg.Crashes, s), planFor(cfg.Restarts, s)
		rcfg.Leaves, rcfg.Joins = planFor(cfg.Leaves, s), planFor(cfg.Joins, s)
		rcfg.Faults = planFor(cfg.Faults, s)
		rn := newRunner(rcfg)
		rn.boot()
		hist := lockservice.NewHistory()
		c.runners = append(c.runners, rn)
		c.cores = append(c.cores, rn.attach(s, cfg.QueueLimit, hist))
		c.hists = append(c.hists, hist)
	}
	for i := 0; i < cfg.KeyCount; i++ {
		c.keys = append(c.keys, fmt.Sprintf("key-%03d", i))
	}
	c.h.event("%s run n=%d shards=%d seed=%d", what, cfg.Graph.N(), cfg.Shards, cfg.Seed)
	return c
}

// planFor returns shard s's entry of a per-shard plan, the zero plan
// when the slice is short.
func planFor[T any](plans []T, s int) (plan T) {
	if s < len(plans) {
		plan = plans[s]
	}
	return plan
}

// attach makes shard s's lease core — the Server's ShardCore — over
// rn's network, recording into hist, the runner's core.
func (rn *runner) attach(s, queueLimit int, hist *lockservice.History) *lockservice.ShardCore {
	rn.core = lockservice.NewShardCore(lockservice.Config{
		Graph:      rn.cfg.Graph,
		ShardID:    s,
		QueueLimit: queueLimit,
		History:    hist,
	}, rn.d.Network())
	return rn.core
}

// advance moves every shard's substrate one lockstep round.
func (c *cluster) advance(t int) {
	for _, rn := range c.runners {
		if !c.cfg.Adversarial {
			rn.fairRound(t)
			continue
		}
		for i := 0; i < c.cfg.AdvSteps; i++ {
			rn.advStep(t)
		}
		rn.endRound(t)
	}
}

// client is a harness's caller of one shard's core: queued and served by
// submit, polled until granted, leased on its runner's clock, ended.
type client struct {
	rn      *runner
	keys    []string
	shard   int
	sess    *drinkers.Session
	born    int
	id      string // lease ID once leased
	release int    // the round the holder means to release it
	done    bool
}

// submit enqueues and serves a session for keys, as Server.Acquire
// does; nil when the core refuses it.
func (rn *runner) submit(keys []string, s, t int) *client {
	sess, err := rn.core.Enqueue(keys)
	if err != nil {
		return nil
	}
	rn.core.Serve(sess)
	return &client{rn: rn, keys: keys, shard: s, sess: sess, born: t}
}

// granted reports whether a queued client's session has been granted.
func (cl *client) granted() bool {
	return cl.id == "" && cl.rn.core.Arbiter().Status(cl.sess) == drinkers.Drinking
}

// lease turns the granted session into a lease living ShardCore.TTL(ttl)
// and returns its grant event.
func (cl *client) lease(ttl time.Duration) lockservice.LeaseEvent {
	ev := cl.rn.core.Grant(cl.sess, cl.keys, ttl, cl.rn.vnow)
	cl.id = ev.ID
	return ev
}

// renew renews the lease for ttl; an error means it was gone.
func (cl *client) renew(ttl time.Duration) error {
	_, _, err := cl.rn.core.Renew(cl.id, ttl, cl.rn.vnow)
	return err
}

// live reports whether the lease is still in the core's table.
func (cl *client) live() bool {
	_, ok := cl.rn.core.Deadline(cl.id)
	return ok
}

// end releases the lease (gone already if expired or fenced) or, still
// queued, withdraws the session as Server.await gives up.
func (cl *client) end() {
	if cl.id != "" {
		_, _, _ = cl.rn.core.Release(cl.id, cl.rn.vnow)
	} else {
		cl.rn.core.Withdraw(cl.sess)
	}
	cl.done = true
}

// submit queues a client for keys on shard s, as the Router's acquire
// does; nil when the shard's core refuses it.
func (c *cluster) submit(keys []string, s, t int) *client {
	cl := c.runners[s].submit(keys, s, t)
	if cl != nil {
		c.clients = append(c.clients, cl)
	}
	return cl
}

// restartHolder reboots, at round t, the home of one live lease whose
// client matches — drawn, clean or garbage — through its runner's restart
// plan, so the restart fences a lease a client is holding. It reports
// whether any lease matched.
func (c *cluster) restartHolder(t int, match func(*client) bool) bool {
	var held []*client
	for _, cl := range c.clients {
		if !cl.done && cl.live() && match(cl) {
			held = append(held, cl)
		}
	}
	if len(held) == 0 {
		return false
	}
	cl := held[c.src.Intn(len(held))]
	rs := Restart{Node: cl.sess.Home, Round: t, Garbage: c.src.Intn(2) == 1}
	cl.rn.cfg.Restarts = append(cl.rn.cfg.Restarts, rs)
	c.h.event("t%d restart holder %d on shard %d garbage=%v", t, rs.Node, cl.shard, rs.Garbage)
	return true
}

// drain ends every live client at the end of a run, counting releases
// and withdrawals.
func drain(clients []*client, released, withdrawn *int) {
	for _, cl := range clients {
		switch {
		case cl.done:
			continue
		case cl.id != "":
			*released++
		default:
			*withdrawn++
		}
		cl.end()
	}
}

// migrationTarget resolves a KeyMigration's destination for a key placed
// on src: To < 0 picks the next ring member after src, so plans stay
// valid under any seed.
func (c *cluster) migrationTarget(src, to int) int {
	if to >= 0 {
		return to
	}
	members := c.router.RingInfo().Members
	for i, m := range members {
		if m == src {
			return members[(i+1)%len(members)]
		}
	}
	return src
}

// finish closes every shard's run and reports the cluster's share of
// the result.
func (c *cluster) finish() ClusterResult {
	res := ClusterResult{Seed: c.cfg.Seed, Rounds: c.cfg.Rounds, Shards: c.cfg.Shards, Trace: c.h.lines}
	comb := fnv.New64a()
	fmt.Fprintf(comb, "%016x\n", c.h.sum())
	for s, rn := range c.runners {
		rn.drained()
		rn.baseline = nil // demand-driven hunger: no locality promise
		sub := rn.finish(!c.cfg.Adversarial, c.cfg.Rounds)
		fmt.Fprintf(comb, "%016x\n", sub.TraceHash)
		for _, v := range sub.SafetyViolations {
			record(&res.SafetyViolations, "shard %d: %s", s, v)
		}
		for _, v := range c.hists[s].Check(c.cfg.Graph) {
			record(&res.HistoryViolations, "shard %d: %s", s, v)
		}
		for _, v := range sub.LeaseViolations {
			record(&res.LeaseViolations, "shard %d: %s", s, v)
		}
	}
	res.TraceHash = comb.Sum64()
	return res
}
