package lockservice_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcdp/internal/detsim"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// haltMidGrant halts a server from its arbiter's OnGrant hook — between
// a lone acquire's grant and its publication — and reports everything
// that escaped the halt: the acquire must fail with ErrHalted, the tap
// must see no grant, and the arbiter must hold nothing.
func haltMidGrant(t *testing.T) (escaped []string) {
	t.Helper()
	s := lockservice.NewServer(lockservice.Config{Graph: graph.Grid(2, 2), Seed: 1, TickEvery: time.Hour})
	var granted []string
	s.SetLeaseTap(func(ev lockservice.LeaseEvent) {
		if ev.Op == lockservice.ReplOpGrant {
			granted = append(granted, ev.ID)
		}
	})
	var sess *drinkers.Session
	s.Arbiter().OnGrant = func(g *drinkers.Session) {
		sess = g
		s.Halt()
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Stop(ctx)
	}()
	_, err := s.Acquire(context.Background(), []string{"edge:0-1"}, 0)
	if !errors.Is(err, lockservice.ErrHalted) {
		escaped = append(escaped, "acquire returned "+errString(err)+", want ErrHalted")
	}
	if len(granted) > 0 {
		escaped = append(escaped, "the tap published grants "+granted[0])
	}
	if sess == nil {
		t.Fatal("the acquire was never granted: nothing to halt in front of")
	}
	if st := s.Arbiter().Status(sess); st != drinkers.Done {
		escaped = append(escaped, "the arbiter still holds the session")
	}
	return escaped
}

func errString(err error) string {
	if err == nil {
		return "a grant"
	}
	return err.Error()
}

// TestHaltBetweenGrantAndPublication: a Halt that lands after the
// arbiter granted an acquire but before the grant was replicated
// swallows it — no client and no standby ever sees it.
func TestHaltBetweenGrantAndPublication(t *testing.T) {
	if escaped := haltMidGrant(t); len(escaped) > 0 {
		t.Fatalf("halt mid-grant leaked: %v", escaped)
	}
}

// TestMutantGrantIgnoringHaltTripsHaltTest: without Acquire's
// post-insert halt check, the halt test must see the grant escape.
func TestMutantGrantIgnoringHaltTripsHaltTest(t *testing.T) {
	restore := lockservice.MutateGrantIgnoresHalt()
	escaped := haltMidGrant(t)
	restore()
	if len(escaped) == 0 {
		t.Fatal("an acquire that publishes past a halt survived the halt test")
	}
}

// TestMutantFenceSkippingGarbageRestartTripsLeaseOracle: a garbage
// restart that fences nothing leaves leases live whose home runs a new
// incarnation. detsim's migration chaos sweep drives the same ShardCore
// the Server does, and its lease oracle must catch the mutant within 20
// seeds — and stay quiet on those seeds with the fence in place. Every
// worker of both shards is crashed and restarted once per run, so the
// restarts meet held leases.
func TestMutantFenceSkippingGarbageRestartTripsLeaseOracle(t *testing.T) {
	run := func(seed int64) *detsim.MigrateResult {
		return detsim.SweepMigrateChaos(graph.Grid(3, 3), seed, 180, 2, 3, 9, false)
	}
	const seeds = 20
	killed := 0
	for s := int64(0); s < seeds; s++ {
		seed := 9_600_000 + s
		if res := run(seed); res.Failed() {
			t.Errorf("seed %d: the real fence failed: lease=%v history=%v dual=%v", seed, res.LeaseViolations, res.HistoryViolations, res.DualGrants)
		}
		restore := lockservice.MutateFenceSkipsGarbageRestart()
		res := run(seed)
		restore()
		if len(res.LeaseViolations) > 0 {
			killed++
		}
	}
	t.Logf("garbage-restart fence mutant tripped the lease oracle on %d/%d seeds", killed, seeds)
	if killed == 0 {
		t.Fatalf("a restart that keeps the ended incarnation's leases survived %d migration chaos runs", seeds)
	}
}

// TestMutantGrantSkippingIncarnationFenceTripsDualPrimary: without the
// replica set's post-grant incarnation check, a zombie primary's
// stragglers reach their clients. detsim's replica harness runs the
// ReplicaCore the Router does, and its dual-primary oracle must catch
// the mutant on the zombie plan of detsim's
// TestReplicaUnsafeNegativeControl, which stays clean with the fence.
func TestMutantGrantSkippingIncarnationFenceTripsDualPrimary(t *testing.T) {
	const seeds = 40
	killed := 0
	for seed := int64(0); seed < seeds; seed++ {
		restore := lockservice.MutateGrantSkipsIncarnationFence()
		res := detsim.RunReplica(detsim.ReplicaConfig{Replicas: 3, Rounds: 150, Seed: seed,
			Kills: []detsim.ReplicaKill{{Round: 30, Target: -1, Zombie: true}}})
		restore()
		if len(res.DualPrimaryViolations) > 0 {
			killed++
		}
	}
	t.Logf("fence-skipping mutant tripped the dual-primary oracle on %d/%d seeds", killed, seeds)
	if killed == 0 {
		t.Fatalf("a replica set that hands out deposed grants survived %d zombie runs", seeds)
	}
}

// TestMutantPromotionIgnoringLagTripsUndrained: with lag dropped from
// the promotion step's gap predicate, a promotion serves over leases it
// cannot prove, and detsim's undrained-lease oracle must say so on the
// lagged-standby runs — which stay clean, and hold down, with lag.
func TestMutantPromotionIgnoringLagTripsUndrained(t *testing.T) {
	// The primary dies while the only standby has been stalled a few
	// rounds: too briefly to look stale, long enough that leases the
	// clients hold never reached it. Lag is the only evidence of the loss.
	lagged := func(seed int64) *detsim.ReplicaResult {
		return detsim.RunReplica(detsim.ReplicaConfig{Replicas: 2, Rounds: 160, Seed: seed,
			Kills:  []detsim.ReplicaKill{{Round: 60, Target: -1}},
			Stalls: []detsim.ReplicaStall{{Replica: 1, From: 55, Until: 90}}})
	}
	const seeds = 40
	killed, holds := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		res := lagged(seed)
		if res.Failed() {
			t.Errorf("seed %d: real predicate failed: dual=%v excl=%v undrained=%v",
				seed, res.DualPrimaryViolations, res.ExclusionViolations, res.UndrainedViolations)
		}
		holds += res.Holds
		restore := lockservice.MutatePromotionIgnoresLag()
		res = lagged(seed)
		restore()
		if len(res.UndrainedViolations) > 0 {
			killed++
		}
	}
	t.Logf("ignore-lag mutant tripped the undrained-lease oracle on %d/%d seeds (real predicate: %d holds)", killed, seeds, holds)
	if killed == 0 {
		t.Fatalf("a promotion that ignores lag>0 survived %d lagged-standby runs", seeds)
	}
}

// The three tests below swap one RouterCore decision for a wrong one
// and require a detsim oracle to notice: detsim's span and migration
// harnesses drive the RouterCore the Router does, so a mutant that
// survives means the sweeps certify something other than the router
// clients hit.

// TestMutantSkippedRefreshTripsOrphanOracle: a span machine that never
// refreshes earlier prepares leaves them to expire on their original
// budget; the orphaned-prepare oracle must say so across the fair span
// sweep.
func TestMutantSkippedRefreshTripsOrphanOracle(t *testing.T) {
	const seeds = 80
	restore := lockservice.MutateSpanSkipsRefresh()
	defer restore()
	killed := 0
	for s := 0; s < seeds; s++ {
		res := detsim.SweepSpan(graph.Grid(3, 3), int64(9_000_000+s), 160, 2+s%2, false)
		if len(res.OrphanedSpans)+len(res.PartialCommits) > 0 {
			killed++
		}
	}
	t.Logf("skip-refresh mutant tripped the orphan/partial-commit oracles on %d/%d seeds", killed, seeds)
	if killed == 0 {
		t.Fatal("a span machine that skips the refresh of earlier prepares survived the fair span sweep")
	}
}

// TestMutantCommitOnExpiredFenceTripsDualGrant re-introduces a commit
// step that trusts its drain observation — no fence expiry check and no
// re-probe of the source — and requires the dual-grant oracle to catch
// it on the hot-key workload; the same runs under the real verdict are
// clean.
func TestMutantCommitOnExpiredFenceTripsDualGrant(t *testing.T) {
	const seeds = 40
	killed := 0
	for s := int64(0); s < seeds; s++ {
		seed := 9_800_000 + s
		if res := detsim.SweepMigrateHot(graph.Ring(6), seed, 160, 2, 4, false); res.Failed() {
			t.Errorf("seed %d: real verdict failed: dual=%v lost=%v diverge=%v", seed, res.DualGrants, res.LostWaiters, res.Divergence)
		}
		restore := lockservice.MutateCommitOnExpiredFence()
		res := detsim.SweepMigrateHot(graph.Ring(6), seed, 160, 2, 4, false)
		restore()
		if len(res.DualGrants) > 0 {
			killed++
		}
	}
	t.Logf("commit-on-expired-fence mutant tripped the dual-grant oracle on %d/%d seeds", killed, seeds)
	if killed == 0 {
		t.Fatal("a commit verdict that ignores fence expiry and the source re-probe survived the migrate sweep")
	}
}

// TestMigrateUnfencedFiresDualGrantOracle is the negative control: a
// migration that installs its override at fence time — no fence, no
// drain, no post-grant check, the shortcut the protocol forbids — must
// be caught by the dual-grant oracle. If no seed trips it, the oracle
// is vacuous and the migration sweeps prove nothing.
func TestMigrateUnfencedFiresDualGrantOracle(t *testing.T) {
	restore := lockservice.MutateMigrationUnfenced()
	defer restore()
	const seeds = 40
	fired := 0
	for s := int64(0); s < seeds; s++ {
		if res := detsim.SweepMigrateHot(graph.Ring(6), 9_800_000+s, 160, 2, 4, false); len(res.DualGrants) > 0 {
			fired++
		}
	}
	t.Logf("unfenced migrations tripped the dual-grant oracle on %d/%d seeds", fired, seeds)
	if fired == 0 {
		t.Fatal("unfenced migrations never tripped the dual-grant oracle: the oracle is vacuous")
	}
}

// TestMutantFenceSkippingGarbageRestartOnHolders runs the garbage-restart
// fence mutant against the two plans whose restarts land on held leases
// by construction — a span's held part, and a lease a migration is
// draining — where every garbage restart leaves the mutant a lease to
// keep. Both plans stay clean with the fence in place.
func TestMutantFenceSkippingGarbageRestartOnHolders(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(seed int64) (failed, stale bool)
	}{{
		name: "span part",
		run: func(seed int64) (bool, bool) {
			res := detsim.SweepSpanRestartHolder(graph.Grid(3, 3), seed, 200, 2, 4, false)
			return res.Failed(), len(res.LeaseViolations) > 0
		},
	}, {
		name: "migrating key",
		run: func(seed int64) (bool, bool) {
			res := detsim.SweepMigrateRestartHolder(graph.Grid(3, 3), seed, 200, 2, 3, false)
			return res.Failed(), len(res.LeaseViolations) > 0
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			const seeds = 20
			killed := 0
			for seed := int64(0); seed < seeds; seed++ {
				if failed, _ := tc.run(seed); failed {
					t.Errorf("seed %d: the real fence failed", seed)
				}
				restore := lockservice.MutateFenceSkipsGarbageRestart()
				_, stale := tc.run(seed)
				restore()
				if stale {
					killed++
				}
			}
			t.Logf("garbage-restart fence mutant tripped the lease oracle on %d/%d seeds", killed, seeds)
			if killed == 0 {
				t.Fatalf("a restart that keeps the ended incarnation's leases survived %d runs", seeds)
			}
		})
	}
}
