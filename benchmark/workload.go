package main

import (
	"fmt"
	"math/rand"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// Settings every workload shares unless it says otherwise.
const (
	tickEvery      = 2 * time.Millisecond
	catalogKeys    = 512
	acquireTimeout = 2 * time.Second
	// slicesPerRun is a multiple of three so that a slice never straddles
	// the fault phases of crash_open.
	slicesPerRun = 24
	crashVictim  = graph.ProcID(0)
	crashSteps   = 20
)

// workload is one named traffic mix against one service shape.
type workload struct {
	name string
	why  string

	shards   int
	topology func() *graph.Graph

	clients int     // closed loop: this many callers, each waiting for its reply
	rate    float64 // open loop: requests per second on a seeded schedule (0 = closed loop)
	hold    time.Duration

	oneConn   bool    // one wire connection rather than one per core
	pairShare float64 // share of requests naming two keys arbitrated by one worker
	spanShare float64 // share of requests naming one key on each of 2-3 shards
	// crash restricts requests to the far locks, crashes crashVictim
	// maliciously for the middle third of the window and restarts it from
	// an arbitrary state for the last third.
	crash bool
}

// warmupFor is the discarded start of a run: long enough for every
// connection to be dialled and every worker to have eaten, short against
// the window.
func warmupFor(window time.Duration) time.Duration {
	if window < 8*time.Second {
		return window / 4
	}
	return 2 * time.Second
}

func grid3x3() *graph.Graph { return graph.Grid(3, 3) }

var workloads = []workload{
	{
		name:   "solo",
		why:    "one closed-loop client, one connection, single keys: nothing queues, so latency is the plain sum of the layers and the diners substrate owns nearly all of it",
		shards: 4, topology: grid3x3, clients: 1, oneConn: true,
	},
	{
		name:   "saturate",
		why:    "64 closed-loop clients, no hold, 20% same-worker pairs: per-grant CPU of wire, router, lease table and arbiter pump decides throughput; idle ticks are amortised away",
		shards: 4, topology: grid3x3, clients: 64, pairShare: 0.20,
	},
	{
		name:   "span_mix",
		why:    "32 closed-loop clients holding 2 ms, 20% cross-shard spans: the two-phase span path runs beside the direct path, so a gain for one that costs the other shows in one run",
		shards: 4, topology: grid3x3, clients: 32, hold: 2 * time.Millisecond, spanShare: 0.20,
	},
	{
		name:   "crash_open",
		why:    "open loop, 1000 requests/s on locks two hops from the worker that crashes maliciously mid-run on each shard: the paper's locality promise as a number, requests still arriving during the fault",
		shards: 4, topology: lockservice.DemoTopology, rate: 1000, hold: 2 * time.Millisecond, crash: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated acquire: the resource names sent to the
// service and the locks (shard and edge) they map onto, which is what
// the ledger keys on — two names that hash to one edge exclude each
// other, and only the lock identity shows that.
type request struct {
	keys   []string
	locks  []string
	shards int  // distinct shards the keys live on
	wide   bool // member of the workload's widest request class
}

// catalog is the workload's key space, classified through the service's
// public placement functions (Router.ShardKeys, ResourceMapper.EdgeFor)
// so that every generated request is one the service can grant.
type catalog struct {
	w       workload
	keys    []string
	lockOf  map[string]string
	byShard [][]string // keys per shard, shards with no key dropped
	// buckets are groups of >= 2 keys on the edges of one worker of one
	// shard: any two of them form a request a single worker arbitrates.
	buckets [][]string
}

func buildCatalog(w workload, rt *lockservice.Router) *catalog {
	c := &catalog{w: w, lockOf: make(map[string]string)}
	names := make([]string, catalogKeys)
	for i := range names {
		names[i] = fmt.Sprintf("res-%06d", i)
	}
	placed := rt.ShardKeys(names)
	type worker struct {
		shard int
		node  graph.ProcID
	}
	keysAt := map[worker][]string{}
	var order []worker
	for s := 0; s < rt.Shards(); s++ {
		g, mapper := rt.Shard(s).Graph(), rt.Shard(s).Mapper()
		var kept []string
		for _, k := range placed[s] {
			e, idx := mapper.EdgeFor(k)
			if w.crash && (g.Dist(crashVictim, e.A) < 2 || g.Dist(crashVictim, e.B) < 2) {
				continue // the paper promises nothing for locks this near the victim
			}
			kept = append(kept, k)
			c.lockOf[k] = fmt.Sprintf("k%d/e%d", s, idx)
			for _, p := range []graph.ProcID{e.A, e.B} {
				wk := worker{s, p}
				if keysAt[wk] == nil {
					order = append(order, wk)
				}
				keysAt[wk] = append(keysAt[wk], k)
			}
		}
		if len(kept) > 0 {
			c.keys = append(c.keys, kept...)
			c.byShard = append(c.byShard, kept)
		}
	}
	for _, wk := range order {
		if len(keysAt[wk]) >= 2 {
			c.buckets = append(c.buckets, keysAt[wk])
		}
	}
	return c
}

func (c *catalog) newRequest(keys []string, shards int, wide bool) request {
	r := request{keys: keys, shards: shards, wide: wide}
	for _, k := range keys {
		r.locks = append(r.locks, c.lockOf[k])
	}
	return r
}

// draw generates the next request from rng. Which class is the widest
// depends on the mix: spans where there are spans, pairs where there are
// pairs, and every request where the workload issues single keys only.
func (c *catalog) draw(rng *rand.Rand) request {
	w := c.w
	onlySingles := w.spanShare == 0 && w.pairShare == 0
	if w.spanShare > 0 && len(c.byShard) >= 2 && rng.Float64() < w.spanShare {
		want := 2
		if len(c.byShard) > 2 && rng.Intn(2) == 1 {
			want = 3
		}
		keys := make([]string, 0, want)
		for _, i := range rng.Perm(len(c.byShard))[:want] {
			members := c.byShard[i]
			keys = append(keys, members[rng.Intn(len(members))])
		}
		return c.newRequest(keys, want, true)
	}
	if w.pairShare > 0 && len(c.buckets) > 0 && rng.Float64() < w.pairShare {
		b := c.buckets[rng.Intn(len(c.buckets))]
		i := rng.Intn(len(b))
		j := rng.Intn(len(b) - 1)
		if j >= i {
			j++
		}
		return c.newRequest([]string{b[i], b[j]}, 1, true)
	}
	return c.newRequest([]string{c.keys[rng.Intn(len(c.keys))]}, 1, onlySingles)
}
