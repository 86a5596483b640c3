package lockservice

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"mcdp/internal/coord"
)

// routerCoreT0 is the instant the table tests' cores count ticks from.
var routerCoreT0 = time.Unix(100, 0)

// keysOn returns n catalog keys that a fresh 3-shard core places on
// shard s.
func keysOn(t *testing.T, c *RouterCore, s, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 1000; i++ {
		if k := fmt.Sprintf("res-%d", i); func() bool { got, _ := c.Lookup(k); return got == s }() {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d keys on shard %d, want %d", len(out), s, n)
	}
	return out
}

// TestRouterCoreParts is parts resolution: ascending parts with keys in
// request order, and the bounces — an empty set, a fenced key — until
// the fence's deadline passes.
func TestRouterCoreParts(t *testing.T) {
	c := NewRouterCore(1, 0, 3, routerCoreT0)
	k0, k1, k2 := keysOn(t, c, 0, 2), keysOn(t, c, 1, 1), keysOn(t, c, 2, 1)
	if _, why := c.Fence(k2[0], 0, time.Second, func(int) bool { return true }, routerCoreT0); why != coord.MigrateOK {
		t.Fatalf("fence refused: %v", why)
	}
	for _, tc := range []struct {
		name  string
		keys  []string
		at    time.Duration // after routerCoreT0
		parts []coord.Part
		err   error
	}{
		{name: "one shard", keys: k0, parts: []coord.Part{{Shard: 0, Keys: k0}}},
		{name: "ascending, request order within a part", keys: []string{k1[0], k0[1], k0[0]},
			parts: []coord.Part{{Shard: 0, Keys: []string{k0[1], k0[0]}}, {Shard: 1, Keys: k1}}},
		{name: "empty set", err: ErrUnmappable},
		{name: "fenced key bounces", keys: []string{k0[0], k2[0]}, err: ErrWrongShard},
		{name: "fence standing at its deadline", keys: k2, at: time.Second, err: ErrWrongShard},
		{name: "fence past its deadline", keys: k2, at: time.Second + 1, parts: []coord.Part{{Shard: 2, Keys: k2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts, err := c.Parts(tc.keys, routerCoreT0.Add(tc.at))
			if !errors.Is(err, tc.err) || (tc.err == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if !slices.EqualFunc(parts, tc.parts, func(a, b coord.Part) bool { return a.Shard == b.Shard && slices.Equal(a.Keys, b.Keys) }) {
				t.Fatalf("parts %v, want %v", parts, tc.parts)
			}
		})
	}
}

// TestRouterCoreRingMembership: leaves and joins each move the
// generation by one; the last member cannot leave, and a shard the core
// does not have cannot join.
func TestRouterCoreRingMembership(t *testing.T) {
	c := NewRouterCore(1, 0, 3, routerCoreT0)
	for _, step := range []struct {
		leave   bool
		shard   int
		ok      bool
		members []int
	}{
		{leave: true, shard: 2, ok: true, members: []int{0, 1}},
		{leave: true, shard: 0, ok: true, members: []int{1}},
		{leave: true, shard: 1, ok: false, members: []int{1}}, // the last member
		{shard: 3, ok: false, members: []int{1}},              // out of range
		{shard: 1, ok: false, members: []int{1}},              // already a member
		{shard: 0, ok: true, members: []int{0, 1}},
	} {
		gen := c.Generation()
		op, err := "join", error(nil)
		if step.leave {
			op, err = "leave", c.RingLeave(step.shard)
		} else {
			err = c.RingJoin(step.shard)
		}
		want := gen
		if step.ok {
			want++
		}
		if (err == nil) != step.ok || c.Generation() != want {
			t.Fatalf("%s %d: err=%v generation %d -> %d, want ok=%v and %d", op, step.shard, err, gen, c.Generation(), step.ok, want)
		}
		if info := c.RingInfo(); !slices.Equal(info.Members, step.members) || info.Generation != want {
			t.Fatalf("%s %d: ring %+v, want members %v at generation %d", op, step.shard, info, step.members, want)
		}
	}
}

// TestRouterCoreSettle drives a three-part span through Settle with
// scripted shard outcomes: each row names the prepares that succeed, the
// renews that fail and a ring change between prepares, and checks the
// terminal, its abort reason and part, and every shard call in order —
// a rollback releases held parts in reverse.
func TestRouterCoreSettle(t *testing.T) {
	const prep, ttl = 2 * time.Second, 30 * time.Second
	for _, tc := range []struct {
		name     string
		prepares []bool                          // each sub-acquire's outcome, in order
		failing  string                          // the one renew that fails, as logged
		change   func(*RouterCore, []coord.Part) // runs after the second prepare
		why      coord.SpanAbort
		part     int
		calls    []string
	}{{
		name:     "committed",
		prepares: []bool{true, true, true},
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "prepare 2", "refresh 0", "refresh 1", "commit 0", "commit 1", "commit 2"},
	}, {
		name:     "first sub-acquire fails",
		prepares: []bool{false},
		why:      coord.PrepareFailed,
		calls:    []string{"prepare 0"},
	}, {
		name:     "last sub-acquire fails",
		prepares: []bool{true, true, false},
		why:      coord.PrepareFailed,
		part:     2,
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "prepare 2", "release 1", "release 0"},
	}, {
		name:     "prepare lost mid-span",
		prepares: []bool{true, true},
		failing:  "refresh 0",
		why:      coord.PrepareLostMidSpan,
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "release 1", "release 0"},
	}, {
		name:     "placement moved mid-span",
		prepares: []bool{true, true, true},
		change:   func(c *RouterCore, parts []coord.Part) { _ = c.RingLeave(parts[2].Shard) },
		why:      coord.PlacementMoved,
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "prepare 2", "refresh 0", "refresh 1", "release 2", "release 1", "release 0"},
	}, {
		name:     "epoch moved, placement kept",
		prepares: []bool{true, true, true},
		change:   func(c *RouterCore, _ []coord.Part) { c.Bump() },
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "prepare 2", "refresh 0", "refresh 1", "commit 0", "commit 1", "commit 2"},
	}, {
		name:     "prepare lost at commit",
		prepares: []bool{true, true, true},
		failing:  "commit 1",
		why:      coord.PrepareLostAtCommit,
		part:     1,
		calls:    []string{"prepare 0", "prepare 1", "refresh 0", "prepare 2", "refresh 0", "refresh 1", "commit 0", "commit 1", "release 2", "release 1", "release 0"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewRouterCore(1, 0, 3, routerCoreT0)
			parts, err := c.Parts([]string{keysOn(t, c, 0, 1)[0], keysOn(t, c, 1, 1)[0], keysOn(t, c, 2, 1)[0]}, routerCoreT0)
			if err != nil {
				t.Fatal(err)
			}
			var calls []string
			renew := func(i int, d time.Duration) error {
				op := map[time.Duration]string{prep: "refresh", ttl: "commit"}[d]
				calls = append(calls, fmt.Sprintf("%s %d", op, i))
				if calls[len(calls)-1] == tc.failing {
					return ErrNotFound
				}
				return nil
			}
			release := func(i int) { calls = append(calls, fmt.Sprintf("release %d", i)) }
			sp := NewSpan(parts, c.Generation(), prep, ttl)
			act := sp.Next()
			for _, ok := range tc.prepares {
				if act.Op != coord.SpanPrepare {
					t.Fatalf("after %v: %+v, want a prepare", calls, act)
				}
				calls = append(calls, fmt.Sprintf("prepare %d", act.Part))
				if act.Part == 1 && tc.change != nil {
					tc.change(c, parts)
				}
				act = c.Settle(&sp, ok, SpanCalls{Renew: renew, Release: release}, routerCoreT0)
			}
			want := coord.SpanAborted
			if tc.why == coord.NotAborted {
				want = coord.SpanCommitted
			}
			if why, part := sp.Abort(); act.Op != want || why != tc.why || part != tc.part {
				t.Errorf("ended %v with %v at part %d, want %v with %v at part %d", act.Op, why, part, want, tc.why, tc.part)
			}
			if !slices.Equal(calls, tc.calls) {
				t.Errorf("calls %v\nwant  %v", calls, tc.calls)
			}
		})
	}
}

// TestRouterCoreCommit applies each coord.CommitVerdict to a fresh
// two-shard core's ring: a key on shard 0 is fenced for shard 1, the row
// sets the scene, and the commit must leave the placement, the override
// table and the generation as the verdict says — one step past the
// scene, whether the override landed, the epoch was bumped or the fence
// lifted.
func TestRouterCoreCommit(t *testing.T) {
	const drain = time.Second
	for _, tc := range []struct {
		name    string
		drained bool
		leases  int
		at      time.Duration // after the fence
		scene   func(*RouterCore)
		verdict coord.CommitVerdict
		placed  int
	}{
		{name: "override", drained: true, verdict: coord.CommitOverride, placed: 1},
		{name: "already placed", drained: true, scene: func(c *RouterCore) { _ = c.RingLeave(0) }, verdict: coord.CommitBump, placed: 1},
		{name: "not drained", verdict: coord.AbortNotDrained, placed: 0},
		{name: "fence expired", drained: true, at: drain, verdict: coord.AbortFenceExpired, placed: 0},
		{name: "regained a lease", drained: true, leases: 1, verdict: coord.AbortRegainedLease, placed: 0},
		{name: "destination left", drained: true, scene: func(c *RouterCore) { _ = c.RingLeave(1) }, verdict: coord.AbortDestinationLeft, placed: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewRouterCore(1, 0, 2, routerCoreT0)
			key := keysOn(t, c, 0, 1)[0]
			m, why := c.Fence(key, 1, drain, func(int) bool { return true }, routerCoreT0)
			if why != coord.MigrateOK {
				t.Fatalf("fence refused: %v", why)
			}
			if tc.scene != nil {
				tc.scene(c)
			}
			gen := c.Generation()
			verdict, err := c.Commit(m, tc.drained, func(string) int { return tc.leases }, routerCoreT0.Add(tc.at))
			if verdict != tc.verdict || err != nil {
				t.Fatalf("verdict %v (err %v), want %v", verdict, err, tc.verdict)
			}
			if got := c.Generation(); got != gen+1 {
				t.Errorf("generation %d -> %d, want one step", gen, got)
			}
			if _, err := c.Parts([]string{key}, routerCoreT0); err != nil {
				t.Error("the commit left its key fenced")
			}
			if placed, _ := c.Lookup(key); placed != tc.placed {
				t.Errorf("key placed on shard %d, want %d", placed, tc.placed)
			}
			count, overrideGen := c.OverrideState()
			if wantCount := map[bool]int{true: 1}[verdict == coord.CommitOverride]; count != wantCount {
				t.Errorf("%d overrides, want %d", count, wantCount)
			}
			if committed := !verdict.Aborted(); committed != (overrideGen == c.Generation()) {
				t.Errorf("override generation %d at ring generation %d: committed=%v", overrideGen, c.Generation(), committed)
			}
		})
	}
}
