// Package shard partitions lock keys across independent arbiter shards
// with a consistent-hash ring.
//
// Each shard runs its own diners core over its own conflict graph; the
// ring only decides which shard owns which key. Placement is fully
// deterministic — virtual-node positions come from a seeded splitmix64
// stream and key positions from splitmix64-finalized FNV-64a — so
// detsim can replay routing
// decisions byte-for-byte from a seed, and two routers built with the
// same seed and membership history agree on every key without talking
// to each other.
//
// A Ring is a plain value, not a concurrent structure: callers that
// mutate membership at runtime (the lockservice router) wrap it in
// their own lock. Every membership change bumps Generation, which the
// service protocol uses to detect stale clients (409 wrong-shard).
package shard

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// point is one virtual node: a position on the ring owned by a shard.
type point struct {
	hash  uint64
	shard int
}

// Ring is a deterministic consistent-hash ring over shard IDs, plus a
// key-level override table layered on top: an override pins one key to
// one shard regardless of its hash position. Overrides are how the
// rebalancing controller moves a hot key off its saturated home —
// every install or removal bumps the generation, so the override table
// rides the same consistency token as membership and two observers
// that agree on the generation agree on every key's placement,
// overridden or not.
type Ring struct {
	seed      uint64
	vnodes    int
	gen       uint64
	members   map[int]bool
	points    []point        // sorted by (hash, shard)
	overrides map[string]int // key -> pinned shard
}

// DefaultVnodes is the virtual-node count used when New is given 0.
// 64 keeps the max/mean key imbalance under ~30% for small fleets
// while keeping rebuilds trivially cheap.
const DefaultVnodes = 64

// New returns an empty ring. All rings built with the same seed and
// vnodes and the same sequence of Add/Remove calls are identical; an
// AddAll counts as its members' Adds in order.
func New(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{seed: seed, vnodes: vnodes, members: make(map[int]bool), overrides: make(map[string]int)}
}

// Seed returns the ring's placement seed.
func (r *Ring) Seed() uint64 { return r.seed }

// Vnodes returns the virtual-node count per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Generation counts membership changes. It starts at 0 for an empty
// ring and increments on every successful Add or Remove, so any two
// observers that agree on the generation agree on the member set and
// therefore on every key placement.
func (r *Ring) Generation() uint64 { return r.gen }

// Size returns the current member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the member shard IDs, sorted.
func (r *Ring) Members() []int {
	out := make([]int, 0, len(r.members))
	for s := range r.members {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Has reports whether shard s is a member.
func (r *Ring) Has(s int) bool { return r.members[s] }

// Add admits shard s and rebuilds the ring. Adding an existing member
// is an error (membership changes must be deliberate: the generation
// is a consistency token, so silent idempotence would desynchronize
// observers that count changes).
func (r *Ring) Add(s int) error { return r.AddAll(s) }

// AddAll admits every shard in ss and rebuilds the ring once. The
// generation advances by one per member, so the result is the ring
// len(ss) sequential Adds would build. It changes nothing and returns
// an error if any id is invalid, already a member, or repeated in ss.
func (r *Ring) AddAll(ss ...int) error {
	for i, s := range ss {
		if s < 0 {
			return fmt.Errorf("shard: invalid shard id %d", s)
		}
		if r.members[s] || slices.Contains(ss[:i], s) {
			return fmt.Errorf("shard: shard %d already in ring", s)
		}
	}
	for _, s := range ss {
		r.members[s] = true
	}
	r.gen += uint64(len(ss))
	r.rebuild()
	return nil
}

// Remove evicts shard s and rebuilds the ring. Keys it owned disperse
// to the surviving shards; every other key keeps its placement (the
// consistent-hashing contract). Overrides pinning keys to the departed
// shard are dropped — those keys fall back to hash placement rather
// than pointing at a non-member.
func (r *Ring) Remove(s int) error {
	if !r.members[s] {
		return fmt.Errorf("shard: shard %d not in ring", s)
	}
	delete(r.members, s)
	for k, dst := range r.overrides {
		if dst == s {
			delete(r.overrides, k)
		}
	}
	r.gen++
	r.rebuild()
	return nil
}

// Bump advances the generation without a membership change. The
// failover path uses it when a shard's primary is replaced by a
// promoted standby: key placement is untouched (the member set is the
// same), but the routing epoch must change so clients that resolved
// placement against the deposed primary are bounced (409) and
// re-resolve before retrying against the new one.
func (r *Ring) Bump() { r.gen++ }

// SetOverride pins key to shard s, shadowing its hash placement, and
// bumps the generation. Re-pinning a key to the shard it already
// resolves to is rejected: like Add/Remove, placement changes must be
// deliberate so generation counts stay meaningful across observers.
func (r *Ring) SetOverride(key string, s int) error {
	if !r.members[s] {
		return fmt.Errorf("shard: override target %d not in ring", s)
	}
	if cur, ok := r.Lookup(key); ok && cur == s {
		return fmt.Errorf("shard: key %q already placed on shard %d", key, s)
	}
	if h, ok := r.lookupHashed(key); ok && h == s {
		// Pinning a key back to its hash home: delete the stale pin
		// instead of stacking a redundant one.
		delete(r.overrides, key)
	} else {
		r.overrides[key] = s
	}
	r.gen++
	return nil
}

// ClearOverride removes key's pin, returning it to hash placement, and
// bumps the generation. Clearing a key with no override is an error.
func (r *Ring) ClearOverride(key string) error {
	if _, ok := r.overrides[key]; !ok {
		return fmt.Errorf("shard: key %q has no override", key)
	}
	delete(r.overrides, key)
	r.gen++
	return nil
}

// Overrides returns a copy of the override table.
func (r *Ring) Overrides() map[string]int {
	out := make(map[string]int, len(r.overrides))
	for k, s := range r.overrides {
		out[k] = s
	}
	return out
}

// OverrideCount returns the number of pinned keys.
func (r *Ring) OverrideCount() int { return len(r.overrides) }

// SetOverrides replaces the whole override table without touching the
// generation — the bulk form a replica uses when rebuilding placement
// from a published RingInfo, whose generation already accounts for
// every install.
func (r *Ring) SetOverrides(m map[string]int) {
	r.overrides = make(map[string]int, len(m))
	for k, s := range m {
		r.overrides[k] = s
	}
}

// Lookup returns the shard owning key: the override table first, then
// the hash walk clockwise from the key's FNV-64a position to the next
// virtual node. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (shard int, ok bool) {
	if s, ok := r.overrides[key]; ok && r.members[s] {
		return s, true
	}
	return r.lookupHashed(key)
}

// lookupHashed is Lookup without the override table: the key's pure
// hash placement.
func (r *Ring) lookupHashed(key string) (shard int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].shard, true
}

// KeyHash returns the ring position of a key: FNV-64a finalized with
// splitmix64. Raw FNV of short, similar keys ("edge:0-1", "res-000042")
// clusters badly — sequential names can land in one quarter of the
// circle, starving whole shards — so the finalizer spreads them over
// the full 64-bit ring.
func KeyHash(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	return splitmix(f.Sum64())
}

// rebuild regenerates the virtual-node points from the member set.
// Points depend only on (seed, shard, replica), so a member re-added
// later lands exactly where it used to.
func (r *Ring) rebuild() {
	r.points = slices.Grow(r.points[:0], len(r.members)*r.vnodes)
	for _, s := range r.Members() {
		base := splitmix(r.seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15)
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{
				hash:  splitmix(base + uint64(v)*0xbf58476d1ce4e5b9),
				shard: s,
			})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.shard, b.shard)
	})
}

// splitmix is the splitmix64 finalizer — the same generator the
// msgpass substrate and the chaos planner use for replayable
// randomness.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
