//lint:deterministic

package lockservice

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/shard"
)

// RouterCore is the Router's placement, span and migration rules with
// no clock in it: the ring, its key overrides and the fences of
// in-flight key migrations; parts resolution and the post-grant
// placement check; ring membership; the span's settle loop; a
// migration's fence and commit. Methods take the time as now, as
// ShardCore's do, so the Router runs the core on the wall clock and
// detsim on its virtual one. Every wait — a sub-acquire, a drain poll —
// is the caller's.
type RouterCore struct {
	shards int
	born   time.Time // tick zero of the coord machines
	// pub, when set, hears every ring generation, under mu. It is an
	// interface the Router implements, not a func, so that wiring it
	// costs NewRouter no allocation.
	pub interface{ pushRingGen(gen uint64) }

	// gen mirrors ring.Generation(), stored under mu after every ring
	// change, so hot-path generation reads pay one atomic load.
	gen atomic.Uint64

	mu          sync.Mutex                  //lint:order rank lockservice 10
	ring        *shard.Ring                 // guarded by mu
	migrating   map[string]*coord.Migration // guarded by mu
	overrideGen uint64                      // guarded by mu
}

// NewRouterCore builds the placement core of shards shards, every one a
// ring member, over a ring seeded with seed. born is the instant the
// coord machines count their ticks from.
func NewRouterCore(seed uint64, vnodes, shards int, born time.Time) *RouterCore {
	c := &RouterCore{}
	c.init(seed, vnodes, shards, born, nil)
	return c
}

// init is NewRouterCore in place, publishing to pub.
func (c *RouterCore) init(seed uint64, vnodes, shards int, born time.Time, pub interface{ pushRingGen(uint64) }) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shards, c.born, c.pub = shards, born, pub
	c.ring = shard.New(seed, vnodes)
	c.migrating = make(map[string]*coord.Migration)
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	if err := c.ring.AddAll(ids...); err != nil {
		panic(err) // fresh ring, dense ids: unreachable
	}
	c.changed()
}

// tick is now as the coord machines count it.
func (c *RouterCore) tick(now time.Time) int64 { return int64(now.Sub(c.born)) }

// changed publishes the ring's generation.
//
// requires mu
func (c *RouterCore) changed() {
	gen := c.ring.Generation()
	c.gen.Store(gen)
	if c.pub != nil {
		c.pub.pushRingGen(gen)
	}
}

// Generation returns the current ring generation.
func (c *RouterCore) Generation() uint64 { return c.gen.Load() }

// Bump starts a new placement epoch with placement unchanged — a
// promotion's, so clients that resolved against the deposed primary
// re-resolve.
func (c *RouterCore) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.Bump()
	c.changed()
}

// Lookup resolves key's shard on the current ring, fences aside.
func (c *RouterCore) Lookup(key string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Lookup(key)
}

// fencedLocked returns the in-flight migration fencing key at now, nil
// when none does: new placements for the key are refused until the
// override lands or the fence's deadline passes (the wedged-migration
// escape hatch).
//
// requires mu
func (c *RouterCore) fencedLocked(key string, now time.Time) *coord.Migration {
	if m, ok := c.migrating[key]; ok && m.Fences(c.tick(now)) {
		return m
	}
	return nil
}

// Parts decomposes a resource set by placement under one ring snapshot,
// returning parts in ascending shard order (the canonical acquisition
// order); within a part, keys keep request order. A key fenced by a
// migration is ErrWrongShard.
func (c *RouterCore) Parts(resources []string, now time.Time) ([]coord.Part, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(resources) == 0 {
		return nil, fmt.Errorf("%w: empty resource set", ErrUnmappable)
	}
	var parts []coord.Part
	for _, res := range resources {
		if m := c.fencedLocked(res, now); m != nil {
			return nil, fmt.Errorf("%w: key %q migrating shard %d -> %d", ErrWrongShard, res, m.Src, m.Dst)
		}
		s, ok := c.ring.Lookup(res)
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

// placed is the post-grant placement rule. The negative control swaps
// it for one that passes every grant.
var placed = coord.Placed

// StillPlaced reports whether every part's keys still resolve to its
// shard and none is fenced by an in-flight migration (coord.Placed) —
// the post-grant check that makes a grant racing a migration fence
// invisible to clients.
func (c *RouterCore) StillPlaced(parts []coord.Part, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	tick := c.tick(now)
	migrating := func(res string) *coord.Migration { return c.migrating[res] }
	for _, pt := range parts {
		if !placed(pt.Keys, pt.Shard, tick, c.ring.Lookup, migrating) {
			return false
		}
	}
	return true
}

// RingLeave removes shard s from the ring: new placements avoid it. The
// last member cannot leave.
func (c *RouterCore) RingLeave(s int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.Size() <= 1 {
		return errors.New("lockservice: cannot remove the last ring member")
	}
	if err := c.ring.Remove(s); err != nil {
		return err
	}
	c.changed()
	return nil
}

// RingJoin readmits shard s to the ring; its old keys return to it
// (virtual-node positions are stable).
func (c *RouterCore) RingJoin(s int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= c.shards {
		return fmt.Errorf("lockservice: shard %d out of range [0,%d)", s, c.shards)
	}
	if err := c.ring.Add(s); err != nil {
		return err
	}
	c.changed()
	return nil
}

// RingInfo snapshots the ring.
func (c *RouterCore) RingInfo() RingInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RingInfo{
		Seed:       c.ring.Seed(),
		Vnodes:     c.ring.Vnodes(),
		Generation: c.ring.Generation(),
		Shards:     c.shards,
		Members:    c.ring.Members(),
		Overrides:  c.ring.Overrides(),
	}
}

// OverrideState reports the override table's size and the generation
// of its last change.
func (c *RouterCore) OverrideState() (count int, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.OverrideCount(), c.overrideGen
}

// ReplicaRing rebuilds a ring from its published description; Lookup
// then agrees with the publisher's for every key at info.Generation. The
// override table rides along: without it a replica resolves rebalanced
// keys to their stale hash homes. Nil when the member list does not
// build.
func ReplicaRing(info *RingInfo) *shard.Ring {
	r := shard.New(info.Seed, info.Vnodes)
	if err := r.AddAll(info.Members...); err != nil {
		return nil
	}
	r.SetOverrides(info.Overrides)
	return r
}

// Span is one shard-spanning acquire in flight: its parts in ascending
// shard order, the ring generation they were resolved under, its two
// lease budgets and the coord machine that decides every step.
type Span struct {
	Parts []coord.Part
	Gen0  uint64
	// Prepare is the budget every early sub-lease is taken and refreshed
	// to; TTL is the client's lease, given to every part at commit.
	Prepare, TTL time.Duration
	m            coord.Span
}

// NewSpan starts a span over parts, already in ascending order.
func NewSpan(parts []coord.Part, gen0 uint64, prepare, ttl time.Duration) Span {
	return Span{Parts: parts, Gen0: gen0, Prepare: prepare, TTL: ttl, m: coord.NewSpan(len(parts))}
}

// Next returns the action awaiting execution.
func (sp *Span) Next() coord.SpanAction { return sp.m.Next() }

// Held is how many leading parts hold a sub-lease.
func (sp *Span) Held() int { return sp.m.Held() }

// Abort returns why the span rolled back and the part whose step failed.
func (sp *Span) Abort() (coord.SpanAbort, int) { return sp.m.Abort() }

// spanDone reports an action's outcome to the machine and returns the
// machine moved on. The mutation test swaps it for a machine that skips
// a decision; the machine goes by value so that the indirect call does
// not move a Router's span to the heap.
var spanDone = func(m coord.Span, ok bool) (coord.Span, coord.SpanAction) {
	act := m.Done(ok)
	return m, act
}

// SpanCalls is how Settle reaches a span's shards.
type SpanCalls struct {
	// Renew renews part's sub-lease to ttl; an error fails the step.
	Renew func(part int, ttl time.Duration) error
	// Release releases part's sub-lease (rollback, best effort).
	Release func(part int)
	// AtEpoch, when set, runs as the span reaches its epoch check: every
	// part held, every earlier prepare refreshed.
	AtEpoch func()
}

// Settle reports the outcome of the span's pending sub-acquire, then
// carries out every action that needs no new one — refreshes, the epoch
// and placement checks, the commit pass, the rollback's releases — and
// returns the first that does (a SpanPrepare) or the terminal.
func (c *RouterCore) Settle(sp *Span, ok bool, calls SpanCalls, now time.Time) coord.SpanAction {
	var act coord.SpanAction
	sp.m, act = spanDone(sp.m, ok)
	for {
		ok = true
		switch act.Op {
		case coord.SpanRefresh:
			ok = calls.Renew(act.Part, sp.Prepare) == nil
		case coord.SpanEpoch:
			if calls.AtEpoch != nil {
				calls.AtEpoch()
			}
			ok = c.Generation() == sp.Gen0
		case coord.SpanPlacement:
			ok = c.StillPlaced(sp.Parts, now)
		case coord.SpanCommit:
			ok = calls.Renew(act.Part, sp.TTL) == nil
		case coord.SpanRelease:
			calls.Release(act.Part)
		default:
			return act
		}
		sp.m, act = spanDone(sp.m, ok)
	}
}

// Span session IDs concatenate the per-shard sub-lease IDs:
// "span:k0:s00000001-2+k3:s00000004-1". Sub IDs contain ':' but never
// '+', so the separator is unambiguous; with the codec's 64-resource
// bound the result stays far under the wire's 4096-byte session limit.
const (
	spanPrefix = "span:"
	spanSep    = "+"
)

// spanSessionID joins a committed span's sub-lease IDs.
func spanSessionID(ids []string) string { return spanPrefix + strings.Join(ids, spanSep) }

// spanSubIDs splits a span session ID into its sub-lease IDs.
func spanSubIDs(sessionID string) ([]string, bool) {
	rest, ok := strings.CutPrefix(sessionID, spanPrefix)
	if !ok || rest == "" {
		return nil, false
	}
	return strings.Split(rest, spanSep), true
}

// fence installs a migration's fence. The negative control swaps it for
// an override installed at once.
var fence = (*RouterCore).fenceLocked

// fenceLocked fences m's key: new placements of it bounce, and a fresh
// epoch makes in-flight resolvers re-resolve.
//
// requires mu
func (c *RouterCore) fenceLocked(m *coord.Migration) {
	c.migrating[m.Key] = m
	c.ring.Bump()
}

// Fence starts moving key to shard dst: it judges the request
// (coord.MigrateRequest.Check, healthy telling whether a shard can take
// the key), then fences the key until now+drain. A refused request
// starts nothing.
func (c *RouterCore) Fence(key string, dst int, drain time.Duration, healthy func(shard int) bool, now time.Time) (*coord.Migration, coord.MigrateRefusal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := coord.MigrateRequest{Dst: dst, Shards: c.shards, Fenced: c.fencedLocked(key, now) != nil}
	req.DstInRing = c.ring.Has(dst)
	req.DstHealthy = req.DstInRing && healthy(dst)
	req.Src, req.Placed = c.ring.Lookup(key)
	if why := req.Check(); why != coord.MigrateOK {
		return nil, why
	}
	m := &coord.Migration{Key: key, Src: req.Src, Dst: dst, Deadline: c.tick(now) + int64(drain)}
	fence(c, m)
	c.changed()
	return m, coord.MigrateOK
}

// Drain judges one probe of m's drain: srcLeases is the source's live
// lease count on the key at now.
func (c *RouterCore) Drain(m *coord.Migration, srcLeases int, now time.Time) coord.DrainVerdict {
	return m.Drain(c.tick(now), srcLeases)
}

// migrationCommit judges a migration's commit step. The mutation test
// swaps it for a verdict that commits on an expired fence.
var migrationCommit = (*coord.Migration).Commit

// Commit ends m: it lifts m's fence, re-probes the source's lease count
// on the key (srcLeases), and applies coord's verdict — all in one
// critical section, so a grant landing afterwards runs its post-grant
// check against the outcome. The verdict installs the override, or
// bumps the epoch; an abort, or an override the ring refuses (err),
// lifts the fence under a fresh epoch with placement unchanged.
func (c *RouterCore) Commit(m *coord.Migration, drained bool, srcLeases func(key string) int, now time.Time) (verdict coord.CommitVerdict, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.migrating[m.Key] == m { // a successor may have fenced the key once this fence expired
		delete(c.migrating, m.Key)
	}
	placedAt, _ := c.ring.Lookup(m.Key)
	verdict = migrationCommit(m, c.tick(now), drained, srcLeases(m.Key), c.ring.Has(m.Dst), placedAt)
	switch {
	case verdict.Aborted():
	case verdict == coord.CommitOverride:
		err = c.ring.SetOverride(m.Key, m.Dst)
	default:
		c.ring.Bump()
	}
	if verdict.Aborted() || err != nil {
		c.ring.Bump()
	} else {
		c.overrideGen = c.ring.Generation()
	}
	c.changed()
	return verdict, err
}
