package detsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// The two mutation tests are the reason internal/coord exists: each
// swaps ONE shared decision for a wrong one through the package's
// unexported hook and requires a detsim oracle to notice. A mutant that
// survives means the sweeps certify something other than the protocol
// the Router runs.

// hotMigrateRun is the negative control's workload (a very hot key,
// holds as long as the drain budget) under the full fenced protocol.
func hotMigrateRun(seed int64) *MigrateResult {
	src := NewRand(seed)
	return RunMigrate(MigrateConfig{
		ClusterConfig: ClusterConfig{Graph: graph.Ring(6), Shards: 2, Seed: seed, Rounds: 160, Source: src},
		HotPercent:    85,
		MaxHoldRounds: 12,
		Migrations:    migratePlan(src, 4, 160, 24),
	})
}

// TestMutantCommitOnExpiredFenceTripsDualGrant re-introduces the PR 10
// bug — a commit step that trusts its drain observation, with no fence
// expiry check and no re-probe of the source — and requires the
// dual-grant oracle to catch it on fair schedules within the negative
// control's seed range; the same runs under the real verdict are clean.
func TestMutantCommitOnExpiredFenceTripsDualGrant(t *testing.T) {
	pr10 := func(m *coord.Migration, _ int64, drained bool, _ int, dstInRing bool, placedAt int) coord.CommitVerdict {
		return m.Commit(m.Deadline-1, drained, 0, dstInRing, placedAt)
	}
	killed := 0
	for s := int64(0); s < 40; s++ {
		if res := hotMigrateRun(9_800_000 + s); res.Failed() {
			t.Errorf("seed %d: real verdict failed: dual=%v lost=%v diverge=%v", 9_800_000+s, res.DualGrants, res.LostWaiters, res.Divergence)
		}
		migCommit = pr10
		res := hotMigrateRun(9_800_000 + s)
		migCommit = (*coord.Migration).Commit
		if len(res.DualGrants) > 0 {
			killed++
		}
	}
	t.Logf("commit-on-expired-fence mutant tripped the dual-grant oracle on %d/40 seeds", killed)
	if killed == 0 {
		t.Fatal("a commit verdict that ignores fence expiry and the source re-probe survived the migrate sweep")
	}
}

// TestMutantSkippedRefreshTripsOrphanOracle: a span machine that never
// refreshes earlier prepares leaves them to expire on their original
// budget; the orphaned-prepare oracle must say so across the fair sweep.
func TestMutantSkippedRefreshTripsOrphanOracle(t *testing.T) {
	spanDone = func(sp *coord.Span, ok bool) coord.SpanAction {
		act := sp.Done(ok)
		for act.Op == coord.SpanRefresh {
			act = sp.Done(true) // claim the renew happened
		}
		return act
	}
	defer func() { spanDone = (*coord.Span).Done }()
	killed, seeds := 0, spanSweepSeeds()
	for s := 0; s < seeds; s++ {
		res := SweepSpan(graph.Grid(3, 3), int64(9_000_000+s), 160, 2+s%2, false)
		if len(res.OrphanedSpans)+len(res.PartialCommits) > 0 {
			killed++
		}
	}
	t.Logf("skip-refresh mutant tripped the orphan/partial-commit oracles on %d/%d seeds", killed, seeds)
	if killed == 0 {
		t.Fatal("a span machine that skips the refresh of earlier prepares survived the fair span sweep")
	}
}

// TestMigrationFenceHonoursItsDeadline: a migration whose coordinator
// is wedged past its drain budget must stop fencing its key — the
// escape hatch Router.fencedLocked has always had. (Before the fence
// went through coord.Migration.Fences, the model's fence stood for as
// long as its entry did.)
func TestMigrationFenceHonoursItsDeadline(t *testing.T) {
	h := newMigHarness(MigrateConfig{
		ClusterConfig: ClusterConfig{Graph: graph.Ring(6), Shards: 2, Seed: 3, Rounds: 120},
		HotPercent:    100,
	})
	hot := h.keys[0]
	for t0 := 0; t0 < 10; t0++ {
		h.round(t0)
	}
	h.startMigration(10, hot, -1)
	if len(h.migrating) != 1 {
		t.Fatalf("migration of %s did not start", hot)
	}
	m := h.migrating[0]
	m.drained, m.commitAt = true, 1<<30 // the coordinator never comes back
	deadline := int(m.Deadline)
	before := h.res.Granted
	for t0 := 10; t0 < 120; t0++ {
		h.round(t0)
		if t0 == deadline && h.res.Granted != before {
			t.Fatalf("%d grants on a fenced key before its fence expired", h.res.Granted-before)
		}
	}
	if h.fence(hot, deadline) == nil || h.fence(hot, deadline+1) != nil {
		t.Fatalf("fence must stand through t%d and lift after it", deadline)
	}
	if h.res.FenceBounced == 0 {
		t.Fatal("no client ever bounced off the live fence")
	}
	if h.res.Granted == before {
		t.Fatal("a wedged migration fenced its key forever: no grant after the deadline")
	}
	if res := h.finish(); res.Failed() {
		t.Fatalf("wedged-migration run failed: dual=%v lost=%v", res.DualGrants, res.LostWaiters)
	}
}

// TestReplicaSupervisorCooloffHoldsFlappingShard is the round-domain
// twin of lockservice's test of the same name: the freshly promoted
// primary dies at once, and the shared detector must hold the second
// promotion down for the cool-off window.
func TestReplicaSupervisorCooloffHoldsFlappingShard(t *testing.T) {
	res := RunReplica(ReplicaConfig{
		Replicas: 3,
		Rounds:   120,
		Seed:     5,
		Kills:    []ReplicaKill{{Round: 20, Target: -1}, {Round: 26, Target: -1}},
		Trace:    true,
	})
	var starts, dones []int
	for _, line := range res.Trace {
		var at, who int
		if strings.Contains(line, " starts ") {
			if _, err := fmt.Sscanf(line, "t%d promote %d starts", &at, &who); err == nil {
				starts = append(starts, at)
			}
		} else if strings.Contains(line, " done ") {
			if _, err := fmt.Sscanf(line, "t%d promote %d done", &at, &who); err == nil {
				dones = append(dones, at)
			}
		}
	}
	if len(starts) != 2 || len(dones) != 2 {
		t.Fatalf("want two promotions, got starts=%v dones=%v", starts, dones)
	}
	if wait := starts[1] - dones[0]; wait < replicaCooloffRounds {
		t.Fatalf("second promotion started %d rounds after the first completed, inside the %d-round cool-off", wait, replicaCooloffRounds)
	}
	if res.Failed() {
		t.Fatalf("flapping run failed: dual=%v excl=%v undrained=%v",
			res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
	}
}

// TestReplicaGapRuleOneSpelling: a stream that opens on a heartbeat
// echoing sequence 0 and then delivers record 2 has lost record 1. The
// harness's delivery applies both frames through ReplicaCore.Apply, and
// promoting that standby must judge the stream lossy; the same stream
// without the hole must not. TestStandbyGapRuleOneSpelling feeds the
// Router's stream reader the same frames.
func TestReplicaGapRuleOneSpelling(t *testing.T) {
	for _, tc := range []struct {
		seq uint64
		gap bool
	}{{seq: 2, gap: true}, {seq: 1, gap: false}} {
		h := newReplicaHarness(ReplicaConfig{Replicas: 2, Seed: 1})
		r := h.reps[1]
		r.queue = []lockservice.ReplRecord{
			{LeaseEvent: lockservice.LeaseEvent{Op: lockservice.ReplOpHeartbeat}, Seq: 0, Inc: 1},
			{LeaseEvent: lockservice.LeaseEvent{Op: lockservice.ReplOpGrant, ID: "a", Resources: []string{"key-00"}, Deadline: roundEnd(100)}, Seq: tc.seq, Inc: 1},
		}
		var now time.Time
		for t0 := 0; len(r.queue) > 0 && t0 < 50; t0++ {
			now = roundEnd(t0)
			h.deliver(t0, now)
		}
		if len(r.queue) > 0 || len(h.rc.Snapshot(1)) != 1 || !h.rc.Acked(1, tc.seq) {
			t.Fatalf("record %d: queue=%d shadow=%v, want it applied and acked", tc.seq, len(r.queue), h.rc.Snapshot(1))
		}
		p, err := h.rc.Promote(now, func(int) bool { return true })
		if err != nil {
			t.Fatalf("record %d: promote: %v", tc.seq, err)
		}
		h.rc.Adopt(p, now, func(lockservice.LeaseEvent) bool { return true })
		h.rc.Complete(p, now, func(int) bool { return true })
		if p.Adopted != 1 || p.Gap != tc.gap {
			t.Fatalf("heartbeat 0 then record %d: adopted=%d gap=%v, want 1 adopted and gap=%v", tc.seq, p.Adopted, p.Gap, tc.gap)
		}
	}
}
