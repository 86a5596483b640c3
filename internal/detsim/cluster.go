package detsim

import (
	"fmt"
	"hash"
	"hash/fnv"

	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
	"mcdp/internal/shard"
)

// ClusterConfig describes the K-shard lockstep substrate the span and
// migration harnesses both run over: K independent diners shards — each
// a full driven msgpass substrate with its own session arbiter — behind
// one consistent-hash placement ring, all advanced by one schedule Source.
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
}

// record appends one violation to list, which holds at most maxRecorded.
func record(list *[]string, format string, args ...any) {
	if len(*list) < maxRecorded {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

// coordTrace is a coordinator's own event log and hash.
type coordTrace struct {
	hash  hash.Hash64
	keep  bool
	lines []string
}

func (t *coordTrace) event(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	t.hash.Write([]byte(line))
	t.hash.Write([]byte{'\n'})
	if t.keep {
		t.lines = append(t.lines, line)
	}
}

// cluster is the running K-shard substrate: per shard a runner, an
// arbiter and its lock history; the placement ring, the key catalog and
// the resource mapper (every shard arbitrates the same graph); the
// schedule source and the coordinator trace.
type cluster struct {
	cfg     ClusterConfig
	src     Source
	ring    *shard.Ring
	runners []*runner
	arbs    []*drinkers.Arbiter
	hists   []*lockservice.History
	mapper  *lockservice.ResourceMapper
	keys    []string
	h       *coordTrace
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
		ring:   shard.New(uint64(cfg.Seed)+1, cfg.Vnodes),
		mapper: lockservice.NewResourceMapper(cfg.Graph),
		h:      &coordTrace{hash: fnv.New64a(), keep: cfg.Trace},
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
		arb := drinkers.NewArbiter(cfg.Graph, cfg.QueueLimit)
		hist := lockservice.NewHistory()
		hist.Tap(arb)
		lockservice.Couple(arb, rn.d.Network())
		c.runners = append(c.runners, rn)
		c.arbs = append(c.arbs, arb)
		c.hists = append(c.hists, hist)
		if err := c.ring.Add(s); err != nil {
			panic(err) // fresh ring, dense ids: unreachable
		}
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
	}
}

// live reports whether node p of shard s can home a session.
func (c *cluster) live(s int, p graph.ProcID) bool {
	return lockservice.Alive(c.runners[s].d.Network(), p)
}

// pump advances shard s's arbiter one lockservice.PumpStep — grants by
// meal or at hand, then hunger from queue state — and returns the
// sessions it granted.
func (c *cluster) pump(s int) []*drinkers.Session {
	return lockservice.PumpStep(c.arbs[s], c.runners[s].d.Network())
}

// submit queues a mapped session at shard s, choosing the first live
// candidate home (the deterministic analog of the server's
// queue-depth-sorted home choice), and turns that home hungry, as
// Server.serve does; nil means no live home or a full queue. The grant,
// at hand or by meal, comes from the next pump.
func (c *cluster) submit(s int, bottles []int, homes []graph.ProcID) *drinkers.Session {
	for _, home := range homes {
		if c.live(s, home) {
			sess, err := c.arbs[s].Submit(home, bottles)
			if err != nil {
				return nil
			}
			c.runners[s].d.Network().SetNeeds(home, true)
			return sess
		}
	}
	return nil
}

// fencedNodes calls fn for every node whose restart or membership leave
// fires at round t — the events at which Server.fenceLeases revokes the
// leases and queue entries homed there.
func (c *cluster) fencedNodes(t int, fn func(s int, node graph.ProcID)) {
	for s, rn := range c.runners {
		for _, rs := range rn.cfg.Restarts {
			if rs.Round == t {
				fn(s, rs.Node)
			}
		}
		for _, l := range rn.cfg.Leaves {
			if l.Round == t {
				fn(s, l.Node)
			}
		}
	}
}

// placed reports whether every key still resolves to shard s.
func (c *cluster) placed(keys []string, s int) bool {
	for _, k := range keys {
		if at, ok := c.ring.Lookup(k); !ok || at != s {
			return false
		}
	}
	return true
}

// migrationTarget resolves a KeyMigration's destination for a key placed
// on src: To < 0 picks the next ring member after src, so plans stay
// valid under any seed.
func (c *cluster) migrationTarget(src, to int) int {
	if to >= 0 {
		return to
	}
	members := c.ring.Members()
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
	fmt.Fprintf(comb, "%016x\n", c.h.hash.Sum64())
	for s, rn := range c.runners {
		rn.baseline = nil // demand-driven hunger: no locality promise
		sub := rn.finish(!c.cfg.Adversarial, c.cfg.Rounds)
		fmt.Fprintf(comb, "%016x\n", sub.TraceHash)
		for _, v := range sub.SafetyViolations {
			record(&res.SafetyViolations, "shard %d: %s", s, v)
		}
		for _, v := range c.hists[s].Check(c.cfg.Graph) {
			record(&res.HistoryViolations, "shard %d: %s", s, v)
		}
	}
	res.TraceHash = comb.Sum64()
	return res
}
