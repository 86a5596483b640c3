package detsim

import (
	"fmt"
	"strings"
	"testing"

	"mcdp/internal/coord"
	"mcdp/internal/graph"
)

// The three mutation tests are the reason internal/coord exists: each
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

// laggedStandbyRun kills the primary while the only standby has been
// stalled for a few rounds: too briefly to look stale, long enough that
// leases the clients already hold never reached it. Replication lag is
// the only evidence of the loss.
func laggedStandbyRun(seed int64) *ReplicaResult {
	return RunReplica(ReplicaConfig{
		Replicas: 2,
		Rounds:   160,
		Seed:     seed,
		Kills:    []ReplicaKill{{Round: 60, Target: -1}},
		Stalls:   []ReplicaStall{{Replica: 1, From: 55, Until: 90}},
	})
}

// TestMutantPromotionIgnoringLagTripsUndrained: with lag dropped from
// the gap predicate the promotion serves over leases it cannot prove.
func TestMutantPromotionIgnoringLagTripsUndrained(t *testing.T) {
	killed, holds := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		res := laggedStandbyRun(seed)
		if res.Failed() {
			t.Errorf("seed %d: real predicate failed: dual=%v excl=%v undrained=%v",
				seed, res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
		}
		holds += res.Holds
		promotionGap = func(ev coord.Evidence) bool { ev.Lag = 0; return ev.Gap() }
		res = laggedStandbyRun(seed)
		promotionGap = coord.Evidence.Gap
		if len(res.UndrainedViolations) > 0 {
			killed++
		}
	}
	t.Logf("ignore-lag mutant tripped the undrained-lease oracle on %d/40 seeds (real predicate: %d holds)", killed, holds)
	if killed == 0 {
		t.Fatal("a promotion that ignores lag>0 survived the lagged-standby runs")
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
// echoing sequence 0 and then delivers record 2 has lost record 1.
// lockservice's standby.reader always said so (applied >= baseSeq);
// this harness spelled the same rule `started` and did not.
// TestStandbyGapRuleOneSpelling feeds lockservice the same frames.
func TestReplicaGapRuleOneSpelling(t *testing.T) {
	h := newReplicaHarness(ReplicaConfig{Replicas: 2, Seed: 1, LagMax: 8})
	st := h.streams[1]
	st.queue = []repRecord{
		{seq: 0, op: repHeartbeat, inc: 1},
		{seq: 2, op: repGrant, lease: 0, key: "key-00", deadline: 30, inc: 1},
	}
	for t0 := 0; len(st.queue) > 0 && t0 < 50; t0++ {
		h.deliver(t0)
	}
	if st.recv.Applied() != 2 || !st.recv.Gap() {
		t.Fatalf("applied=%d gap=%v, want record 2 applied and the hole behind it flagged", st.recv.Applied(), st.recv.Gap())
	}
}
