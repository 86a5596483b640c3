package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/shard"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// shardCatalog maps the resource names the generator draws onto the
// placement ring so every request is single-shard by construction.
// With no usable ring (replicaRing could not rebuild it) everything
// lives on pseudo-shard 0 and the server's 409s do the routing.
type shardCatalog struct {
	keys    []string
	shardOf map[string]int
	byShard map[int][]string // keys grouped by owning shard, for span draws
	buckets [][]string       // same-worker, same-shard groups of >=2 keys
	shards  []int            // sorted shard ids owning at least one key
	// order lists the keys shard-grouped (all of shards[0], then
	// shards[1], ...). Skewed samplers draw by rank over this order, so
	// the hot head of a zipf lands on ONE shard by construction — the
	// reproducible hot-shard workload the rebalancing controller is
	// measured against.
	order []string
}

// buildCatalog draws over keys synthetic names, or — keys 0 — directly
// from the server's raw lock catalog: the keys are then the canonical
// edge names themselves.
func buildCatalog(keys int, edges []string, ring *shard.Ring) *shardCatalog {
	if keys > 0 {
		return buildKeyCatalog(keys, edges, ring)
	}
	return assembleCatalog(edges, edges, ring)
}

// buildKeyCatalog synthesizes a keyspace of nkeys named resources. The
// server hashes an arbitrary name onto an edge (FNV-1a over the edge
// count — the ResourceMapper contract), so many keys share each
// arbitration slot; sharding multiplies the slot count while the
// keyspace stays fixed. This is the service's natural workload shape:
// clients lock domain names ("res-000042"), not topology edges.
func buildKeyCatalog(nkeys int, edges []string, ring *shard.Ring) *shardCatalog {
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("res-%06d", i)
	}
	return assembleCatalog(keys, edges, ring)
}

// assembleCatalog classifies every key by owning shard and groups keys
// by (arbitrating worker, shard): a two-lock request drawn from one
// group stays single-worker (the MapSession contract) and single-shard
// (the router contract).
func assembleCatalog(keys, edges []string, ring *shard.Ring) *shardCatalog {
	c := &shardCatalog{
		keys:    keys,
		shardOf: make(map[string]int, len(keys)),
		byShard: make(map[int][]string),
	}
	seen := map[int]bool{}
	type group struct{ endpoint, shard int }
	byGroup := map[group][]string{}
	var order []group
	for _, name := range keys {
		s := 0
		if ring != nil {
			s, _ = ring.Lookup(name)
		}
		c.shardOf[name] = s
		c.byShard[s] = append(c.byShard[s], name)
		seen[s] = true
		a, b, ok := parseEdge(edgeNameFor(name, edges))
		if !ok {
			continue
		}
		for _, p := range []int{a, b} {
			g := group{p, s}
			if _, dup := byGroup[g]; !dup {
				order = append(order, g)
			}
			byGroup[g] = append(byGroup[g], name)
		}
	}
	for s := range seen {
		c.shards = append(c.shards, s)
	}
	sort.Ints(c.shards)
	for _, s := range c.shards {
		c.order = append(c.order, c.byShard[s]...)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].endpoint != order[j].endpoint {
			return order[i].endpoint < order[j].endpoint
		}
		return order[i].shard < order[j].shard
	})
	for _, g := range order {
		if members := byGroup[g]; len(members) >= 2 {
			c.buckets = append(c.buckets, members)
		}
	}
	return c
}

// edgeNameFor replicates ResourceMapper.EdgeFor client-side: explicit
// edge names map to themselves, anything else FNV-1a hashes onto the
// server's edge list (which Status reports in graph order).
func edgeNameFor(name string, edges []string) string {
	if strings.HasPrefix(name, "edge:") {
		return name
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return edges[h.Sum64()%uint64(len(edges))]
}

// distOpts names the key-draw distribution for one load run. The zero
// value (empty dist) is uniform — the historical behavior.
type distOpts struct {
	dist   string  // "", "uniform", "zipf", or "hotset"
	skew   float64 // zipf exponent s (>1; higher concentrates the head)
	hotset int     // hotset mode: hot-key count, clamped to one shard's keys
	hot    float64 // hotset mode: probability a draw hits the hot set
}

// sampler returns a seeded single-key draw function over the catalog
// under the requested distribution. Skewed draws rank keys by the
// shard-grouped order, so the hot head colocates on the first shard;
// hotset mode pins a fixed set of keys from that shard and hammers it
// with probability hot. Each worker wraps its own rng, so a run's
// distribution is reproducible from the load seed alone.
func (c *shardCatalog) sampler(rng *rand.Rand, d distOpts) func() string {
	switch d.dist {
	case "zipf":
		// rand.NewZipf returns nil for s <= 1, and an empty catalog
		// would underflow imax; the CLI layers validate both, but a
		// caller that slips through gets uniform draws, not a panic.
		if d.skew > 1 && len(c.order) > 0 {
			z := rand.NewZipf(rng, d.skew, 1, uint64(len(c.order)-1))
			return func() string { return c.order[z.Uint64()] }
		}
	case "hotset":
		hot := c.byShard[c.shards[0]]
		if d.hotset > 0 && d.hotset < len(hot) {
			hot = hot[:d.hotset]
		}
		return func() string {
			if rng.Float64() < d.hot {
				return hot[rng.Intn(len(hot))]
			}
			return c.keys[rng.Intn(len(c.keys))]
		}
	}
	return func() string { return c.keys[rng.Intn(len(c.keys))] }
}

// pick draws one request's resource set: with probability pair a
// two-lock same-worker same-shard request (uniform over buckets),
// otherwise a single lock from the draw function.
func (c *shardCatalog) pick(rng *rand.Rand, pair float64, draw func() string) []string {
	if pair > 0 && len(c.buckets) > 0 && rng.Float64() < pair {
		b := c.buckets[rng.Intn(len(c.buckets))]
		i := rng.Intn(len(b))
		j := rng.Intn(len(b) - 1)
		if j >= i {
			j++
		}
		return []string{b[i], b[j]}
	}
	return []string{draw()}
}

// pickSpan draws a cross-shard multi-key set: one key from each of two
// or three distinct shards, so the request is guaranteed to decompose
// into per-shard parts the router can place (each part is a single
// key). Returns nil when the catalog holds fewer than two shards.
func (c *shardCatalog) pickSpan(rng *rand.Rand) []string {
	if len(c.shards) < 2 {
		return nil
	}
	want := 2
	if len(c.shards) > 2 && rng.Intn(2) == 1 {
		want = 3
	}
	set := make([]string, 0, want)
	for _, i := range rng.Perm(len(c.shards))[:want] {
		members := c.byShard[c.shards[i]]
		set = append(set, members[rng.Intn(len(members))])
	}
	return set
}

// replicaRing rebuilds the router's placement ring from its /v1/ring
// description; Lookup then agrees with the router for every key at the
// reported generation. The override table rides along: without it a
// client would resolve rebalanced keys to their stale hash homes and
// eat a 409 on every draw.
func replicaRing(info *lockservice.RingInfo) *shard.Ring {
	r := shard.New(info.Seed, info.Vnodes)
	for _, m := range info.Members {
		if err := r.Add(m); err != nil {
			return nil // overlapping members: trust the server, route blind
		}
	}
	r.SetOverrides(info.Overrides)
	return r
}

// shardTally collects one shard's client-observed outcomes.
type shardTally struct {
	rec    *stats.Recorder
	grants atomic.Int64
}

// loadOpts parameterizes one load run.
type loadOpts struct {
	addr      string // HTTP base URL, or host:port for the wire transport
	transport string // "http" (default) or "wire"
	wireConns int    // wire connection pool size shared by the swarm (default 8)
	clients   int
	duration  time.Duration
	hold      time.Duration
	timeout   time.Duration
	pair      float64
	span      float64 // probability a request draws a cross-shard multi-key set
	seed      int64
	keys      int      // synthetic keyspace size (0 = raw edge catalog)
	dist      distOpts // single-key draw distribution (zero value = uniform)
}

// loadResult is what the swarm observed, overall and per shard.
type loadResult struct {
	grants        atomic.Int64
	spanGrants    atomic.Int64 // grants answering a cross-shard multi-key draw
	timeouts      atomic.Int64 // 408: wait budget exhausted
	busy          atomic.Int64 // 429: backpressure
	unserviceable atomic.Int64 // 422: no worker can arbitrate the mapped set
	leaderless    atomic.Int64 // 503: shard between primaries, retries exhausted
	staleRing     atomic.Int64 // 409: ring generation moved, retries exhausted
	failures      atomic.Int64
	overall       *stats.Recorder
	perShard      map[int]*shardTally
	// wire carries the shared wire client's traffic counters (nil for
	// HTTP runs): connection reuse and outbound batch-size distribution.
	wire *wire.ClientStats
}

// errCode extracts the rejection code from either transport's error.
// Both reuse the HTTP status numbers — *lockservice.APIError carries
// them natively and *wire.Error mirrors them — so one switch covers
// either, with no string matching. 0 means no code (transport-level
// failure or context cancellation).
func errCode(err error) int {
	var apiErr *lockservice.APIError
	var wireErr *wire.Error
	switch {
	case errors.As(err, &apiErr):
		return apiErr.StatusCode
	case errors.As(err, &wireErr):
		return int(wireErr.Code)
	}
	return 0
}

// classify buckets one acquire/release failure by its rejection code.
// 503 and 409 reach here only after the client exhausted its internal
// retries (Retry-After honored, ring re-resolved) — expected shed load
// during a failover, not a bug, so they get their own buckets.
func classify(err error, res *loadResult) {
	switch errCode(err) {
	case 408:
		res.timeouts.Add(1)
	case 429:
		res.busy.Add(1)
	case 422:
		res.unserviceable.Add(1)
	case 503:
		res.leaderless.Add(1)
	case 409:
		res.staleRing.Add(1)
	default:
		res.failures.Add(1)
	}
}

// loadSession is the transport-agnostic slice of the client surface the
// swarm needs; both transports land on the same Router underneath.
type loadSession interface {
	Acquire(ctx context.Context, resources []string, timeout time.Duration) (session string, err error)
	Release(ctx context.Context, session string) error
}

type httpSession struct{ c *lockservice.Client }

func (s httpSession) Acquire(ctx context.Context, resources []string, timeout time.Duration) (string, error) {
	grant, err := s.c.Acquire(ctx, resources, timeout, 0)
	if err != nil {
		return "", err
	}
	return grant.SessionID, nil
}

func (s httpSession) Release(ctx context.Context, session string) error {
	return s.c.Release(ctx, session)
}

type wireSession struct{ c *wire.Client }

func (s wireSession) Acquire(ctx context.Context, resources []string, timeout time.Duration) (string, error) {
	grant, err := s.c.Acquire(ctx, resources, timeout, 0)
	if err != nil {
		return "", err
	}
	return grant.SessionID, nil
}

func (s wireSession) Release(ctx context.Context, session string) error {
	return s.c.Release(ctx, session)
}

// runLoad drives the acquire/hold/release swarm against addr until the
// duration elapses and returns everything it measured. Shared by the
// loadgen and bench subcommands. HTTP workers each own a client (the
// stdlib transport pools connections per client); wire workers share
// one pooled, pipelined client so concurrent operations coalesce into
// batched frames — that sharing is the transport's whole point.
func runLoad(ctx context.Context, cat *shardCatalog, o loadOpts) *loadResult {
	res := &loadResult{
		overall:  stats.NewRecorder(1 << 18),
		perShard: make(map[int]*shardTally, len(cat.shards)),
	}
	for _, s := range cat.shards {
		res.perShard[s] = &shardTally{rec: stats.NewRecorder(1 << 16)}
	}

	var shared *wire.Client
	if o.transport == "wire" {
		shared = wire.NewClient(o.addr)
		if o.wireConns > 0 {
			shared.Conns = o.wireConns
		} else {
			shared.Conns = 8
		}
		_ = shared.Sync(ctx) // hello seeds the generation the acquires assert
		res.wire = shared.Stats()
		defer shared.Close()
	}

	var wg sync.WaitGroup
	stopAt := time.Now().Add(o.duration)
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)*7919))
			draw := cat.sampler(rng, o.dist)
			var sess loadSession
			if shared != nil {
				sess = wireSession{shared}
			} else {
				c := lockservice.NewClient(o.addr)
				_, _ = c.Ring(ctx) // seed the generation the acquires assert
				sess = httpSession{c}
			}
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				resources := cat.pick(rng, o.pair, draw)
				isSpan := false
				if o.span > 0 && rng.Float64() < o.span {
					if set := cat.pickSpan(rng); set != nil {
						resources, isSpan = set, true
					}
				}
				start := time.Now()
				session, err := sess.Acquire(ctx, resources, o.timeout)
				if err != nil {
					classify(err, res)
					continue
				}
				lat := time.Since(start).Seconds()
				res.overall.Observe(lat)
				res.grants.Add(1)
				if isSpan {
					res.spanGrants.Add(1)
				}
				if t := res.perShard[cat.shardOf[resources[0]]]; t != nil {
					t.rec.Observe(lat)
					t.grants.Add(1)
				}
				time.Sleep(o.hold)
				if err := sess.Release(ctx, session); err != nil {
					res.failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return res
}

// quantileMS reads a latency quantile from a recorder in milliseconds.
func quantileMS(rec *stats.Recorder, q float64) float64 {
	return stats.Quantile(rec.Samples(), q) * 1000
}
