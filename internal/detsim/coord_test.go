package detsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// TestMigrationFenceHonoursItsDeadline: a migration whose coordinator
// is wedged past its drain budget must stop fencing its key — the
// escape hatch RouterCore.fencedLocked has always had. (Before the fence
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
	deadline := 10 + h.cfg.DrainRounds
	before := h.res.Granted
	for t0 := 10; t0 < 120; t0++ {
		h.round(t0)
		if t0 == deadline && h.res.Granted != before {
			t.Fatalf("%d grants on a fenced key before its fence expired", h.res.Granted-before)
		}
	}
	fenced := func(t0 int) bool { _, err := h.router.Parts([]string{hot}, roundEnd(t0)); return err != nil }
	if !fenced(deadline) || fenced(deadline+1) {
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
// harness's delivery applies both records through ReplicaCore.Apply, and
// promoting that standby must judge the stream lossy; the same stream
// without the hole must not. TestStandbyGapRuleOneSpelling hands the
// Router's link the same two records through its enqueue.
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
