package detsim

import (
	"fmt"
	"testing"

	"mcdp/internal/lockservice"
)

// replicaSweepSeeds scales the replica sweeps like the other harnesses.
func replicaSweepSeeds() int {
	if testing.Short() || raceEnabled {
		return 20
	}
	return 120
}

// TestReplicaSweepKillPrimary is the replica harness's main acceptance
// sweep: seed-indexed kill-primary campaigns (a third of kills zombie)
// must produce zero dual-primary, exclusion, or undrained violations —
// and the sweep must actually promote, fence split-brain grants, and
// grant leases, or the oracles are vacuous.
func TestReplicaSweepKillPrimary(t *testing.T) {
	seeds := replicaSweepSeeds()
	var grants, promotions, fenced int
	for s := 0; s < seeds; s++ {
		seed := int64(11_000_000 + s)
		res := SweepReplica(seed, 300, 3, 3, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v excl=%v undrained=%v\nreplay: go run ./cmd/detsim -mode replica -seed %d -rounds 300 -replicas 3 -kills 3 -trace",
				seed, res.DualPrimaryViolations, res.ExclusionViolations,
				res.UndrainedViolations, seed)
		}
		grants += res.Grants
		promotions += res.Promotions
		fenced += res.FencedGrants
	}
	if grants == 0 {
		t.Fatal("sweep granted no leases; oracles never exercised")
	}
	if promotions == 0 {
		t.Fatal("sweep never promoted a standby; failover path unexercised")
	}
	if fenced == 0 {
		t.Fatal("sweep fenced no split-brain grants; zombie path unexercised")
	}
}

// TestReplicaSweepAdversarial: under combined primary kills, standby
// kills, kill-during-promotion strikes, and replication stalls, the
// safety oracles must still hold — the adversary controls which
// promotion succeeds, never whether two clients hold one key.
func TestReplicaSweepAdversarial(t *testing.T) {
	seeds := replicaSweepSeeds() / 2
	var holds int
	for s := 0; s < seeds; s++ {
		seed := int64(11_100_000 + s)
		res := SweepReplicaAdversarial(seed, 300, 3, 4, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v excl=%v undrained=%v",
				seed, res.DualPrimaryViolations, res.ExclusionViolations,
				res.UndrainedViolations)
		}
		holds += res.Holds
	}
	if holds == 0 {
		t.Fatal("adversarial sweep never forced a TTL-drain hold-down; gap detection unexercised")
	}
}

// TestReplicaSweepKillDuringPromotion: every primary kill is chased by
// a strike on the standby the promotion chooses. Dark completions and
// re-promotions must stay safe, and the sweep must actually hit the
// window (failed promotions observed) or the schedule missed.
func TestReplicaSweepKillDuringPromotion(t *testing.T) {
	seeds := replicaSweepSeeds() / 2
	var failed, promotions int
	for s := 0; s < seeds; s++ {
		seed := int64(11_200_000 + s)
		res := SweepReplicaKillDuringPromotion(seed, 300, 3, 3, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v excl=%v undrained=%v",
				seed, res.DualPrimaryViolations, res.ExclusionViolations,
				res.UndrainedViolations)
		}
		failed += res.FailedPromotions
		promotions += res.Promotions
	}
	if failed == 0 {
		t.Fatal("sweep never killed a promotion in flight; dark-completion path unexercised")
	}
	if promotions == 0 {
		t.Fatal("sweep never completed a promotion")
	}
}

// TestReplicaLaggedStandbyDrains: a standby stalled across the kill
// cannot prove the primary's tail, so its promotion must open a
// TTL-drain hold-down rather than serve over unproven leases.
func TestReplicaLaggedStandbyDrains(t *testing.T) {
	res := RunReplica(ReplicaConfig{
		Replicas: 2,
		Rounds:   200,
		Seed:     7,
		Kills:    []ReplicaKill{{Round: 60, Target: -1}},
		Stalls:   []ReplicaStall{{Replica: 1, From: 40, Until: 80}},
	})
	if res.Failed() {
		t.Fatalf("dual=%v excl=%v undrained=%v",
			res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
	}
	if res.Promotions == 0 {
		t.Fatal("stalled-standby run never promoted")
	}
	if res.Holds == 0 {
		t.Fatal("promotion of a stalled standby did not open a hold-down")
	}
	if res.MaxBlackout == 0 {
		t.Fatal("run recorded no blackout despite a hold-down")
	}
}

// TestReplicaUnsafeNegativeControl is the safe half of the zombie
// negative control (its unsafe half, the post-grant fence mutated away,
// is lockservice's TestMutantGrantSkippingIncarnationFenceTripsDualPrimary):
// zombie-primary campaigns across a fixed seed range stay safe, and the
// zombie's stragglers are fenced rather than never attempted.
func TestReplicaUnsafeNegativeControl(t *testing.T) {
	plan := []ReplicaKill{{Round: 30, Target: -1, Zombie: true}}
	var fencedSafe int
	for seed := int64(0); seed < 40; seed++ {
		safe := RunReplica(ReplicaConfig{Replicas: 3, Rounds: 150, Seed: seed, Kills: plan})
		if safe.Failed() {
			t.Errorf("seed %d: safe run violated: dual=%v excl=%v undrained=%v",
				seed, safe.DualPrimaryViolations, safe.ExclusionViolations,
				safe.UndrainedViolations)
		}
		fencedSafe += safe.FencedGrants
	}
	if fencedSafe == 0 {
		t.Fatal("safe runs fenced nothing; the zombie never tried to grant")
	}
}

// TestReplicaSameSeedIdenticalTrace: two runs of the same seed must
// produce byte-identical traces and hashes; a neighboring seed must
// diverge.
func TestReplicaSameSeedIdenticalTrace(t *testing.T) {
	a := SweepReplica(17, 250, 3, 3, true)
	b := SweepReplica(17, 250, 3, 3, true)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, different hash: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("same seed, different trace length: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace diverges at line %d: %q vs %q", i, a.Trace[i], b.Trace[i])
		}
	}
	c := SweepReplica(18, 250, 3, 3, true)
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical trace hashes")
	}
}

// TestReplicaConfigDefaults: the zero config gets the documented
// defaults and a quiet no-fault run serves the whole time.
func TestReplicaConfigDefaults(t *testing.T) {
	res := RunReplica(ReplicaConfig{Seed: 1})
	if res.Rounds != 300 || res.Replicas != 3 {
		t.Fatalf("defaults not applied: rounds=%d replicas=%d", res.Rounds, res.Replicas)
	}
	if res.Failed() {
		t.Fatalf("no-fault run violated: dual=%v excl=%v undrained=%v",
			res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
	}
	if res.Promotions != 0 || res.BlackoutRounds != 0 {
		t.Fatalf("no-fault run promoted (%d) or blacked out (%d)",
			res.Promotions, res.BlackoutRounds)
	}
	if res.Grants == 0 {
		t.Fatal("no-fault run granted nothing")
	}
}

// FuzzFailover: the fuzzer's bytes decode the whole failover schedule —
// kill plan (count, rounds, zombie flags), stall windows, and every
// workload/delivery draw. Any input that makes two clients hold one
// key, surfaces a deposed grant, or skips a TTL drain is a replayable
// counterexample.
func FuzzFailover(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x01})
	f.Add([]byte("kill the primary twice and stall the freshest standby"))
	f.Add([]byte{0xff, 0x3c, 0x00, 0xa1, 0x55, 0x08, 0x90, 0x12, 0xde, 0xad})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		kills := RandomReplicaKills(src, 1+src.Intn(3), 120)
		for i := range kills {
			if src.Intn(4) == 0 {
				kills[i].Target = -2 // retarget at the promotion window
			}
		}
		var stalls []ReplicaStall
		for n := src.Intn(3); n > 0; n-- {
			at := src.Intn(120)
			stalls = append(stalls, ReplicaStall{
				Replica: 1 + src.Intn(2),
				From:    at,
				Until:   at + 1 + src.Intn(30),
			})
		}
		res := RunReplica(ReplicaConfig{
			Replicas: 3,
			Rounds:   200,
			Seed:     4,
			Kills:    kills,
			Stalls:   stalls,
			Source:   src,
		})
		if res.Failed() {
			t.Fatalf("schedule broke failover safety: dual=%v excl=%v undrained=%v (kills=%v stalls=%v)",
				res.DualPrimaryViolations, res.ExclusionViolations,
				res.UndrainedViolations, kills, stalls)
		}
	})
}

// TestReplicaStalledStreamIsDemoted: a standby that never acks costs
// the first grants their whole ack budget, and after degradedAfter
// misses in a row its stream is demoted — later grants no longer wait
// on it. (This harness used to wait on every live stream on every
// grant, whatever it had missed.)
func TestReplicaStalledStreamIsDemoted(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		h := newReplicaHarness(ReplicaConfig{Replicas: 2, Rounds: 200, Seed: seed,
			Stalls: []ReplicaStall{{Replica: 1, From: 0, Until: 200}}})
		for r := 0; r < 200; r++ {
			h.round(r)
		}
		var waited, late int
		for _, l := range h.leases {
			if l.visibleAt > l.granted {
				waited++
				if l.granted >= 50 {
					late++
				}
			}
		}
		if waited == 0 {
			t.Fatalf("seed %d: no grant ever waited on the stalled stream", seed)
		}
		if late > 0 {
			t.Fatalf("seed %d: %d grants after round 50 still waited on a stream that missed every ack", seed, late)
		}
	}
}

// lossyFailover kills the primary of three at round 60 while both
// standbys lag (stalled over rounds 56–64), so the promotion at round
// 62 opens a TTL-drain hold-down until round 94, and kills the promoted
// primary at round 90, inside it.
func lossyFailover(seed int64) *replicaHarness {
	return newReplicaHarness(ReplicaConfig{
		Replicas: 3, Rounds: 160, Seed: seed,
		Kills:  []ReplicaKill{{Round: 60, Target: -1}, {Round: 90, Target: -1}},
		Stalls: []ReplicaStall{{Replica: 1, From: 56, Until: 64}, {Replica: 2, From: 56, Until: 64}},
	})
}

// TestReplicaHeartbeatsThroughHoldDown: a primary in its hold-down is
// healthy and heartbeats, so when it dies a surviving standby whose
// stream lost nothing is fresh, and its promotion (at round 92) needs no
// second hold-down. (This harness used to heartbeat only while serving:
// the stream went stale across the hold-down and forced another.)
func TestReplicaHeartbeatsThroughHoldDown(t *testing.T) {
	runs := 0
	for seed := int64(0); seed < 10; seed++ {
		h := lossyFailover(seed)
		for r := 0; r < 92; r++ {
			h.round(r)
		}
		holds := h.res.Holds
		for r := 92; r < 160; r++ {
			h.round(r)
		}
		res := h.finish()
		if res.Failed() {
			t.Errorf("seed %d: dual=%v excl=%v undrained=%v", seed, res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
		}
		if holds != 1 || res.Promotions != 2 || res.DroppedRecords > 0 {
			continue // no first hold-down, or a lossy stream: a second one is owed
		}
		runs++
		if res.Holds != holds {
			t.Errorf("seed %d: the second promotion held down again: its stream went stale during the first hold-down", seed)
		}
	}
	if runs < 5 {
		t.Fatalf("only %d of 10 runs held down once over a lossless survivor; the plan missed", runs)
	}
}

// TestReplicaExpiriesReplicatedThroughHoldDown: the promoted primary's
// janitor expires the leases it adopted while its hold-down still
// stands, and the expiries reach the surviving standby — a lease due
// five rounds ago is no longer in its shadow table. (This harness used
// to replicate expiries only while serving.)
func TestReplicaExpiriesReplicatedThroughHoldDown(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := lossyFailover(seed)
		for r := 0; r < 65; r++ {
			h.round(r)
		}
		p := h.rc.Primary()
		var adopted []*ledgerLease
		for _, l := range h.leases {
			if _, ok := h.reps[p].rn.core.Deadline(l.id); ok {
				adopted = append(adopted, l)
			}
		}
		for r := 65; r < 89; r++ {
			h.round(r)
		}
		survivor := h.rc.Standbys()[0]
		stale := 0
		for _, le := range h.rc.Snapshot(survivor) {
			for _, l := range adopted {
				if l.id == le.ID && roundOf(l.deadline) <= 83 {
					stale++
				}
			}
		}
		if len(adopted) == 0 {
			t.Fatalf("seed %d: the promotion adopted nothing", seed)
		}
		if stale > 0 {
			t.Errorf("seed %d: %d of the %d adopted leases expired by round 83 are still in standby %d's shadow at round 88", seed, stale, len(adopted), survivor)
		}
	}
}

// TestReplicaSurvivorDropsReleasedLeases: a release the first primary
// issued just before it was deposed can still sit in the surviving
// standby's queue when the incarnation bumps, and is then refused as
// stale. The survivor must not carry that lease into a later promotion
// of its own: on lossyFailover with the promoted primary killed at
// round 100 instead (after its hold-down), the second promotion adopts
// or skips no lease the first primary released. (The survivor's shadow
// table used to outlive the promotion; seeds 5, 8, 10 and 19 carried a
// released lease into the second one.)
func TestReplicaSurvivorDropsReleasedLeases(t *testing.T) {
	second := 0
	for seed := int64(0); seed < 20; seed++ {
		h := newReplicaHarness(ReplicaConfig{
			Replicas: 3, Rounds: 160, Seed: seed, Trace: true,
			Kills:  []ReplicaKill{{Round: 60, Target: -1}, {Round: 100, Target: -1}},
			Stalls: []ReplicaStall{{Replica: 1, From: 56, Until: 64}, {Replica: 2, From: 56, Until: 64}},
		})
		var shadow []lockservice.LeaseEvent // the survivor's, before the second promotion
		for r := 0; r < 160; r++ {
			if h.promo == nil && h.res.Promotions == 1 && len(h.rc.Standbys()) > 0 {
				shadow = h.rc.Snapshot(h.rc.Standbys()[0])
			}
			h.round(r)
			if h.promo != nil && h.res.Promotions == 1 {
				second++
				break
			}
		}
		if h.promo == nil {
			continue
		}
		firstPrimary := map[string]bool{}
		for _, l := range h.leases {
			if l.by == 0 {
				firstPrimary[l.id] = true
			}
		}
		released := map[string]bool{}
		for _, line := range h.h.lines {
			var round int
			var id string
			if n, _ := fmt.Sscanf(line, "t%d release %s", &round, &id); n == 2 && firstPrimary[id] {
				released[id] = true
			}
		}
		for _, le := range shadow {
			if released[le.ID] {
				t.Errorf("seed %d: the second promotion took lease %s, which the first primary released", seed, le.ID)
			}
		}
	}
	if second < 10 {
		t.Fatalf("only %d of 20 runs promoted a second time; the plan missed", second)
	}
}
