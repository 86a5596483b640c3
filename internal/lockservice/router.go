package lockservice

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/coord"
	"mcdp/internal/shard"
	"mcdp/internal/stats"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Shards is the number of independent arbiter shards (default 1).
	Shards int
	// Vnodes is the ring's virtual-node count per shard (default
	// shard.DefaultVnodes).
	Vnodes int
	// Base is the per-shard server config template. Each shard gets a
	// copy with ShardID set to its index and Seed offset by it, so the
	// shards' msgpass substrates draw distinct randomness streams.
	// Base.History, when set, taps shard 0 only — the history checker
	// judges one arbiter at a time.
	Base Config
	// PrepareTTL bounds how long a cross-shard span may hold an early
	// sub-lease before the whole span commits. Every prepare is
	// refreshed back to this budget after each downstream sub-acquire,
	// so it only needs to cover ONE shard's wait plus slack — not the
	// span's total latency. Default: Base.DefaultTimeout + 1s.
	PrepareTTL time.Duration
	// Replicas is the number of hot standbys per shard (default 0: no
	// replication, failure of a shard's server is failure of the
	// shard). With replicas, every shard's lease-table deltas stream to
	// its standbys, and the router's shard supervisor promotes the
	// freshest standby when the primary misses health checks.
	Replicas int
	// Failover tunes detection and promotion when Replicas > 0.
	Failover FailoverConfig
	// Rebalance, when set, closes the hot-key feedback loop: the router
	// feeds every grant into per-shard control sensors and runs the
	// controller periodically, migrating hot keys between shards under
	// the generation protocol. Nil (the default) disables sensing and
	// the loop entirely — the grant path pays nothing.
	Rebalance *control.Config
	// MigrationDrain bounds how long a key migration waits for the
	// source shard's live leases on the key to release or expire before
	// aborting. Default: Base.DefaultTTL + 500ms.
	MigrationDrain time.Duration
}

// RouterMetrics counts the router's own routing decisions; per-shard
// service metrics live on each shard's Server.
type RouterMetrics struct {
	WrongShardRejections atomic.Int64
	// SpanAcquires counts acquires whose resource set spanned shards
	// and entered the prepare/commit protocol; single-shard sets take
	// the direct fast path and are not counted here.
	SpanAcquires atomic.Int64
	// SpanCommits counts spans whose every sub-lease was promoted to
	// the client's TTL atomically.
	SpanCommits atomic.Int64
	// SpanRollbacks counts spans (or span renewals) that released early
	// sub-leases after a sub-acquire failure, a lost prepare, or a
	// fenced sub-lease.
	SpanRollbacks atomic.Int64
	// ShardRequests counts acquire requests routed to each shard.
	ShardRequests []atomic.Int64
	// Failovers counts completed standby promotions across all shards.
	Failovers atomic.Int64
	// LeaderlessRejections counts requests bounced with 503+Retry-After
	// while a shard had no serving primary.
	LeaderlessRejections atomic.Int64
	// Rebalances counts committed key migrations (override installed
	// after a clean drain); RebalancesAborted counts migrations that
	// fenced a key but timed out waiting for its leases to drain and
	// rolled the fence back.
	Rebalances        atomic.Int64
	RebalancesAborted atomic.Int64
	// MigrationFences counts acquires bounced (409) because a requested
	// key was fenced by an in-flight migration or had moved between
	// placement resolution and grant.
	MigrationFences atomic.Int64

	// PromotionHist observes promotion latency (decision to serving) in
	// seconds; promMu/promotions keep the raw durations so the bench
	// harness can report an exact p99 MTTR, capped to keep long chaos
	// runs bounded.
	PromotionHist *stats.LatencyHistogram
	promMu        sync.Mutex      //lint:order rank lockservice 60
	promotions    []time.Duration // guarded by promMu
}

// maxPromotionSamples bounds the raw promotion-duration buffer.
const maxPromotionSamples = 4096

// observePromotion records one promotion's latency.
func (m *RouterMetrics) observePromotion(d time.Duration) {
	m.PromotionHist.Observe(d.Seconds())
	m.promMu.Lock()
	if len(m.promotions) < maxPromotionSamples {
		m.promotions = append(m.promotions, d)
	}
	m.promMu.Unlock()
}

// PromotionDurations returns the raw recorded promotion latencies.
func (m *RouterMetrics) PromotionDurations() []time.Duration {
	m.promMu.Lock()
	defer m.promMu.Unlock()
	return append([]time.Duration(nil), m.promotions...)
}

// Router fronts N independent arbiter shards with a consistent-hash
// ring: each resource name hashes to one shard, whose diners core
// arbitrates it with no coordination with the others. A resource set
// that lands on one shard acquires directly there; a set that spans
// shards goes through the span protocol — per-shard sub-sessions
// acquired in ascending shard order (a deterministic total order, so
// two spans contending for overlapping shards can never deadlock),
// early grants held under a TTL-fenced prepare lease, then every
// sub-lease promoted to the client's TTL at commit or released at
// rollback. A client that resolved placement under a stale ring
// generation is bounced with 409 so it re-resolves before retrying.
//
// Ring membership changes (RingLeave/RingJoin) redirect new placements
// only: leases already granted by a departing shard stay valid on that
// shard until released or expired, and the session-ID shard prefix
// keeps their releases routable throughout.
type Router struct {
	cfg     RouterConfig
	sets    []*replicaSet
	fo      FailoverConfig
	metrics *RouterMetrics
	fams    stats.Families

	// ctl is the hot-key feedback controller (nil unless
	// RouterConfig.Rebalance is set); advice caches its latest derived
	// tuning for the 429 Retry-After hint.
	ctl    *control.Controller
	advice atomic.Pointer[control.Advice]

	done chan struct{}
	wg   sync.WaitGroup
	// born anchors the monotonic tick the coord machines are driven with.
	born time.Time

	mu          sync.Mutex                  //lint:order rank lockservice 10
	ring        *shard.Ring                 // guarded by mu
	migrating   map[string]*coord.Migration // guarded by mu
	overrideGen uint64                      // guarded by mu

	// gen mirrors ring.Generation(), published by pushRingGen after
	// every ring mutation, so hot-path generation reads (the acquire
	// pre-check and post-grant check) pay one atomic load instead of
	// taking mu.
	gen atomic.Uint64
}

// NewRouter builds a router and its shard servers — with
// cfg.Replicas > 0, each shard gets that many hot standbys wired into
// a replica set. No goroutines start until Start.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	r := &Router{
		cfg:       cfg,
		fo:        cfg.Failover.withDefaults(),
		metrics:   &RouterMetrics{ShardRequests: make([]atomic.Int64, cfg.Shards), PromotionHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds())},
		ring:      shard.New(uint64(cfg.Base.Seed), cfg.Vnodes),
		migrating: make(map[string]*coord.Migration),
		done:      make(chan struct{}),
		born:      time.Now(),
	}
	if cfg.Rebalance != nil {
		cc := *cfg.Rebalance
		cc.Shards = cfg.Shards
		r.ctl = control.New(cc)
	}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Base
		scfg.ShardID = i
		scfg.Seed = cfg.Base.Seed + int64(i)
		if i > 0 {
			scfg.History = nil
		}
		primary := NewServer(scfg)
		var standbys []*Server
		for j := 0; j < cfg.Replicas; j++ {
			sbcfg := scfg
			// Standbys keep the shard ID (session prefixes must stay
			// routable after promotion) but draw distinct substrate
			// randomness, and never tap the history checker — their
			// arbiter is idle until promoted.
			sbcfg.Seed = scfg.Seed + int64(1000*(j+1))
			sbcfg.History = nil
			standbys = append(standbys, NewServer(sbcfg))
		}
		r.sets = append(r.sets, newReplicaSet(i, primary, standbys,
			r.fo.AckTimeout, r.fo.StaleAfter, r.fo.CheckEvery))
		if err := r.ring.Add(i); err != nil {
			panic(err) // fresh ring, dense ids: unreachable
		}
	}
	r.pushRingGen()
	r.fams.Register(r.families()...)
	r.fams.Register(r.controlFamilies()...)
	return r
}

// pushRingGen publishes the current ring generation to every member
// server of every shard (standbys included, so a freshly promoted
// primary already reports the right epoch).
//
// requires mu
func (r *Router) pushRingGen() {
	gen := r.ring.Generation()
	r.gen.Store(gen)
	for _, set := range r.sets {
		for _, s := range set.servers() {
			s.SetRingGen(gen)
		}
	}
}

// Start starts every member server of every shard, plus the shard
// supervisor when replicas are configured.
func (r *Router) Start() {
	for _, set := range r.sets {
		for _, s := range set.servers() {
			s.Start()
		}
	}
	if r.cfg.Replicas > 0 {
		r.wg.Add(1)
		go r.superviseShards()
	}
	if r.ctl != nil {
		r.wg.Add(1)
		go r.rebalanceLoop()
	}
}

// Stop halts the shard supervisor, tears down replication streams, and
// drains every member server concurrently under the shared context.
func (r *Router) Stop(ctx context.Context) {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	r.wg.Wait()
	var wg sync.WaitGroup
	for _, set := range r.sets {
		set.stop()
		for _, s := range set.servers() {
			wg.Add(1)
			go func(s *Server) {
				defer wg.Done()
				s.Stop(ctx)
			}(s)
		}
	}
	wg.Wait()
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.sets) }

// Shard returns shard i's currently serving primary (tests and the
// bench harness); after a failover this is the promoted standby.
func (r *Router) Shard(i int) *Server { return r.sets[i].Primary() }

// ShardInfo reports shard i's failover-facing state.
type ShardInfo struct {
	Shard       int           `json:"shard"`
	Incarnation uint64        `json:"incarnation"`
	Standbys    int           `json:"standbys"`
	Halted      bool          `json:"halted"`
	Lag         uint64        `json:"replication_lag"`
	Hold        time.Duration `json:"-"`
}

// ShardServers returns every server shard i has ever owned — the
// current primary, live standbys, and deposed ex-primaries. The chaos
// harness sweeps it so post-run exclusion verdicts cover servers that
// granted leases before being fenced out, not just the survivor.
func (r *Router) ShardServers(i int) []*Server { return r.sets[i].servers() }

// ShardInfo snapshots shard i's role state (admin surface and tests).
func (r *Router) ShardInfo(i int) ShardInfo {
	set := r.sets[i]
	return ShardInfo{
		Shard:       i,
		Incarnation: set.incarnation(),
		Standbys:    set.standbyCount(),
		Halted:      set.Primary().Halted(),
		Lag:         set.maxLag(),
		Hold:        set.holdRemaining(),
	}
}

// Metrics returns the router's routing counters.
func (r *Router) Metrics() *RouterMetrics { return r.metrics }

// RingInfo describes the ring so clients can replicate placement
// locally: a shard.Ring built from Seed/Vnodes with Members added in
// ascending order reproduces the router's Lookup for every key at this
// Generation.
type RingInfo struct {
	Seed       uint64 `json:"seed"`
	Vnodes     int    `json:"vnodes"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Members    []int  `json:"members"`
	// Overrides is the key-level placement override table the
	// rebalancing controller installs; a replica rebuilding the ring
	// must apply it (shard.Ring.SetOverrides) or hot keys resolve to
	// their stale hash homes.
	Overrides map[string]int `json:"overrides,omitempty"`
}

// RingInfo snapshots the current ring.
func (r *Router) RingInfo() RingInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingInfo{
		Seed:       r.ring.Seed(),
		Vnodes:     r.ring.Vnodes(),
		Generation: r.ring.Generation(),
		Shards:     len(r.sets),
		Members:    r.ring.Members(),
		Overrides:  r.ring.Overrides(),
	}
}

// RingLeave removes shard s from the ring: new placements avoid it,
// its live leases drain in place. The shard's server keeps running so
// those leases stay releasable.
func (r *Router) RingLeave(s int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring.Size() <= 1 {
		return errors.New("lockservice: cannot remove the last ring member")
	}
	if err := r.ring.Remove(s); err != nil {
		return err
	}
	r.pushRingGen()
	return nil
}

// RingJoin readmits shard s to the ring; its old keys return to it
// (virtual-node positions are stable).
func (r *Router) RingJoin(s int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s < 0 || s >= len(r.sets) {
		return fmt.Errorf("lockservice: shard %d out of range [0,%d)", s, len(r.sets))
	}
	if err := r.ring.Add(s); err != nil {
		return err
	}
	r.pushRingGen()
	return nil
}

// now is the tick the router drives the coord machines with:
// nanoseconds on the monotonic clock since the router was built.
func (r *Router) now() int64 { return int64(time.Since(r.born)) }

// fencedLocked reports whether res is fenced by an in-flight key
// migration: new placements for it are refused (409) until the source
// shard's leases drain and the override lands, or the fence's deadline
// expires (the wedged-migration escape hatch).
//
// requires mu
func (r *Router) fencedLocked(res string, now int64) *coord.Migration {
	if m, ok := r.migrating[res]; ok && m.Fences(now) {
		return m
	}
	return nil
}

// generation returns the current ring generation — the cache
// pushRingGen publishes, so readers pay one atomic load and the grant
// path never takes mu just to read the epoch.
func (r *Router) generation() uint64 {
	return r.gen.Load()
}

// partsFor decomposes a resource set by ring placement under one ring
// snapshot, returning parts in ascending shard order (the canonical
// acquisition order); within a part, keys keep request order.
func (r *Router) partsFor(resources []string) ([]coord.Part, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(resources) == 0 {
		return nil, fmt.Errorf("%w: empty resource set", ErrUnmappable)
	}
	now := r.now()
	var parts []coord.Part
	for _, res := range resources {
		if m := r.fencedLocked(res, now); m != nil {
			r.metrics.MigrationFences.Add(1)
			return nil, fmt.Errorf("%w: key %q migrating shard %d -> %d", ErrWrongShard, res, m.Src, m.Dst)
		}
		s, ok := r.ring.Lookup(res)
		if !ok {
			return nil, ErrUnserviceable
		}
		i := 0
		for i < len(parts) && parts[i].Shard != s {
			i++
		}
		if i == len(parts) {
			parts = append(parts, coord.Part{Shard: s})
		}
		parts[i].Keys = append(parts[i].Keys, res)
	}
	return coord.Ascending(parts), nil
}

// prepareBudget resolves the span prepare-lease TTL.
func (r *Router) prepareBudget() time.Duration {
	if r.cfg.PrepareTTL > 0 {
		return r.cfg.PrepareTTL
	}
	// NewServer defaulted every shard's DefaultTimeout, so this is
	// always positive: one shard's wait budget plus scheduling slack.
	return r.sets[0].Primary().cfg.DefaultTimeout + time.Second
}

// Acquire routes the resource set by ring placement. A set owned by
// one shard acquires directly there (no prepare lease, one round
// trip); a spanning set runs the span protocol. ringGen, when
// non-zero, asserts the generation the caller resolved placement
// under; a mismatch is ErrWrongShard.
//
//lint:lease acquire
func (r *Router) Acquire(ctx context.Context, resources []string, ttl time.Duration, ringGen uint64) (*Grant, error) {
	cur := r.generation()
	if ringGen != 0 && ringGen != cur {
		r.metrics.WrongShardRejections.Add(1)
		return nil, fmt.Errorf("%w: client generation %d, ring generation %d", ErrWrongShard, ringGen, cur)
	}
	parts, err := r.partsFor(resources)
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		home := parts[0].Shard
		r.metrics.ShardRequests[home].Add(1)
		g, err := r.sets[home].acquire(ctx, resources, ttl)
		if errors.Is(err, ErrLeaderless) {
			r.metrics.LeaderlessRejections.Add(1)
		}
		// Migration fence, second half: a key migration that started
		// after partsFor resolved placement bumped the generation before
		// waiting for the source's leases to drain. A grant that raced
		// that fence must not reach the client — release it and bounce,
		// exactly as if the client had routed under a stale generation.
		// Steady state (generation unchanged) pays one atomic load.
		if err == nil && r.generation() != cur && !r.stillPlaced(resources, home) {
			_ = r.sets[home].release(g.SessionID)
			r.metrics.MigrationFences.Add(1)
			return nil, fmt.Errorf("%w: placement of %q moved mid-acquire", ErrWrongShard, resources[0])
		}
		if err == nil && r.ctl != nil {
			r.ctl.Observe(home, g.Resources, g.Wait)
		}
		return g, err
	}
	return r.acquireSpan(ctx, resources, parts, ttl, cur)
}

// stillPlaced reports whether every resource still resolves to home
// and none is fenced by an in-flight migration — the post-grant check
// that makes a grant racing a migration fence invisible to clients.
func (r *Router) stillPlaced(resources []string, home int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for _, res := range resources {
		if r.fencedLocked(res, now) != nil {
			return false
		}
		if s, ok := r.ring.Lookup(res); !ok || s != home {
			return false
		}
	}
	return true
}

// partsStillPlaced is stillPlaced for a span's decomposition.
func (r *Router) partsStillPlaced(parts []coord.Part) bool {
	for _, pt := range parts {
		if !r.stillPlaced(pt.Keys, pt.Shard) {
			return false
		}
	}
	return true
}

// acquireSpan acquires a shard-spanning resource set all-or-nothing by
// driving coord.Span, which decides every order, refresh, abort and
// commit: the loop walks the parts in ascending shard order taking each
// sub-lease under the prepare budget, and settle carries out with wall
// time whatever the machine asks for in between. A prepare the janitor or
// a node fence revoked mid-protocol surfaces as ErrSpanAborted (409,
// retryable: rollback left no residue), as does a key migration that
// moved any part's placement between resolution — under generation gen0
// — and commit.
func (r *Router) acquireSpan(ctx context.Context, resources []string, parts []coord.Part, ttl time.Duration, gen0 uint64) (*Grant, error) {
	// partsFor already sorts, but the deadlock-freedom proof should not
	// depend on a contract a caller could break: re-assert the walk order
	// locally (a handful of elements, already sorted — effectively free).
	parts = coord.Ascending(parts)
	r.metrics.SpanAcquires.Add(1)
	start := time.Now()
	prep := r.prepareBudget()
	sp := coord.NewSpan(len(parts))
	subs := make([]*Grant, 0, len(parts))
	var cause error // the failed step's own error
	// settle executes every action that needs no new sub-acquire and
	// returns the first one that does, or the terminal.
	settle := func(act coord.SpanAction) coord.SpanAction {
		for {
			ok := true
			switch act.Op {
			case coord.SpanRefresh:
				_, cause = r.sets[parts[act.Part].Shard].renew(subs[act.Part].SessionID, prep)
				ok = cause == nil
			case coord.SpanEpoch:
				ok = r.generation() == gen0
			case coord.SpanPlacement:
				ok = r.partsStillPlaced(parts)
			case coord.SpanCommit:
				if _, cause = r.sets[parts[act.Part].Shard].renew(subs[act.Part].SessionID, ttl); cause == nil {
					r.sets[parts[act.Part].Shard].noteSpan(ReplOpSpanCommit, subs[act.Part].SessionID)
				}
				ok = cause == nil
			case coord.SpanRelease:
				_ = r.sets[parts[act.Part].Shard].release(subs[act.Part].SessionID)
				r.sets[parts[act.Part].Shard].noteSpan(ReplOpSpanRollback, subs[act.Part].SessionID)
			default:
				return act
			}
			act = sp.Done(ok)
		}
	}
	act := sp.Next()
	for _, pt := range parts {
		if act.Op != coord.SpanPrepare {
			break
		}
		r.metrics.ShardRequests[pt.Shard].Add(1)
		//lint:order acquire span pt.Shard
		g, err := r.sets[pt.Shard].acquire(ctx, pt.Keys, prep)
		if err != nil {
			cause = err
		} else {
			subs = append(subs, g)
			// The sub-lease is now an early grant under a prepare TTL; tell
			// the shard's standbys so a promotion mid-span knows this lease
			// belongs to an unresolved span.
			r.sets[pt.Shard].noteSpan(ReplOpSpanPrepare, g.SessionID)
		}
		act = settle(sp.Done(err == nil))
	}
	if act.Op != coord.SpanCommitted {
		if sp.Held() > 0 {
			r.metrics.SpanRollbacks.Add(1)
		}
		switch why, part := sp.Abort(); why {
		case coord.PrepareFailed:
			if errors.Is(cause, ErrLeaderless) {
				r.metrics.LeaderlessRejections.Add(1)
			}
			return nil, cause
		case coord.PlacementMoved:
			r.metrics.MigrationFences.Add(1)
			return nil, fmt.Errorf("%w: %v (ring generation %d -> %d)", ErrSpanAborted, why, gen0, r.generation())
		default:
			return nil, fmt.Errorf("%w: shard %d %v: %v", ErrSpanAborted, parts[part].Shard, why, cause)
		}
	}
	if r.ctl != nil {
		for _, pt := range parts {
			r.ctl.Observe(pt.Shard, pt.Keys, time.Since(start))
		}
	}
	r.metrics.SpanCommits.Add(1)
	ids := make([]string, len(subs))
	for i, g := range subs {
		ids[i] = g.SessionID
	}
	return &Grant{
		SessionID: spanPrefix + strings.Join(ids, spanSep),
		Node:      subs[0].Node,
		Resources: append([]string(nil), resources...),
		Wait:      time.Since(start),
	}, nil
}

// Span session IDs concatenate the per-shard sub-lease IDs:
// "span:k0:s00000001-2+k3:s00000004-1". Sub IDs contain ':' but never
// '+', so the separator is unambiguous; with the codec's 64-resource
// bound the result stays far under the wire's 4096-byte session limit.
const (
	spanPrefix = "span:"
	spanSep    = "+"
)

// spanSubIDs splits a span session ID into its sub-lease IDs.
func spanSubIDs(sessionID string) ([]string, bool) {
	rest, ok := strings.CutPrefix(sessionID, spanPrefix)
	if !ok || rest == "" {
		return nil, false
	}
	return strings.Split(rest, spanSep), true
}

// Release routes a release by the session ID's shard prefix. A span
// session releases every sub-lease; it succeeds if any sub-lease was
// still live (sub-leases already expired or fenced are at-most-once
// no-ops, matching the single-session release contract) and reports
// ErrNotFound only when the whole span was already gone.
//
//lint:lease release
func (r *Router) Release(sessionID string) error {
	if ids, ok := spanSubIDs(sessionID); ok {
		released := false
		for _, id := range ids {
			if r.releaseSub(id) == nil {
				released = true
			}
		}
		if !released {
			return ErrNotFound
		}
		return nil
	}
	return r.releaseSub(sessionID)
}

func (r *Router) releaseSub(sessionID string) error {
	s, ok := sessionShard(sessionID)
	if !ok || s >= len(r.sets) {
		return ErrNotFound
	}
	return r.sets[s].release(sessionID)
}

// Renew routes a lease renewal by the session ID's shard prefix. A
// span session renews every sub-lease and reports the smallest granted
// lifetime; if any sub-lease is gone (expired or fenced), the span's
// atomicity is already broken, so the survivors are released and the
// renewal fails — the client holds all of its keys or none.
//
//lint:lease renew
func (r *Router) Renew(sessionID string, ttl time.Duration) (time.Duration, error) {
	if ids, ok := spanSubIDs(sessionID); ok {
		granted := time.Duration(0)
		for i, id := range ids {
			g, err := r.renewSub(id, ttl)
			if err != nil {
				for _, other := range ids {
					if other != id {
						_ = r.releaseSub(other)
					}
				}
				r.metrics.SpanRollbacks.Add(1)
				return 0, fmt.Errorf("%w: span sub-lease %s lost: %v", ErrNotFound, id, err)
			}
			if i == 0 || g < granted {
				granted = g
			}
		}
		return granted, nil
	}
	return r.renewSub(sessionID, ttl)
}

func (r *Router) renewSub(sessionID string, ttl time.Duration) (time.Duration, error) {
	s, ok := sessionShard(sessionID)
	if !ok || s >= len(r.sets) {
		return 0, ErrNotFound
	}
	return r.sets[s].renew(sessionID, ttl)
}

// sessionShard parses the "k<shard>:" session-ID prefix.
func sessionShard(sessionID string) (int, bool) {
	pfx, _, ok := strings.Cut(sessionID, ":")
	if !ok || !strings.HasPrefix(pfx, "k") {
		return 0, false
	}
	s, err := strconv.Atoi(pfx[1:])
	if err != nil || s < 0 {
		return 0, false
	}
	return s, true
}

// Status aggregates every shard's report: summed service totals at the
// top level, full per-shard reports under Reports. Node rows carry
// their shard, so IDs stay meaningful after concatenation.
func (r *Router) Status() StatusReport {
	agg := StatusReport{
		Shards:  len(r.sets),
		ShardID: -1, // the aggregate speaks for no single shard
		RingGen: r.generation(),
	}
	for _, set := range r.sets {
		s := set.Primary()
		rep := s.Status()
		rep.Role = "primary"
		if s.Halted() {
			rep.Role = "halted"
		}
		rep.ShardIncarnation = set.incarnation()
		rep.Standbys = set.standbyCount()
		rep.ReplicationLag = int64(set.maxLag())
		if agg.Topology == "" {
			agg.Topology = fmt.Sprintf("%d x %s", len(r.sets), rep.Topology)
			// Every shard arbitrates the same catalog (one conflict graph
			// per shard, identical names); publish it once.
			agg.Edges = rep.Edges
		}
		agg.Workers += rep.Workers
		agg.Locks += rep.Locks
		agg.ActiveLeases += rep.ActiveLeases
		agg.QueueDepth += rep.QueueDepth
		agg.Grants += rep.Grants
		if rep.UptimeMS > agg.UptimeMS {
			agg.UptimeMS = rep.UptimeMS
		}
		agg.Draining = agg.Draining || rep.Draining
		agg.Nodes = append(agg.Nodes, rep.Nodes...)
		agg.Reports = append(agg.Reports, rep)
	}
	if r.ctl != nil {
		cnt, gen := r.OverrideState()
		agg.Control = &ControlReport{Status: r.ctl.Snapshot(), OverrideCount: cnt, OverrideGen: gen}
	}
	return agg
}

// ShardKeys partitions a catalog of resource names by owning shard —
// the helper loadgen and the bench harness use to draw same-shard
// resource pairs.
func (r *Router) ShardKeys(names []string) map[int][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]string)
	for _, n := range names {
		if s, ok := r.ring.Lookup(n); ok {
			out[s] = append(out[s], n)
		}
	}
	for s := range out {
		sort.Strings(out[s])
	}
	return out
}
