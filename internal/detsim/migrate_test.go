package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// migrateSweepSeeds scales the migration sweeps like the span sweeps:
// K lockstep substrates per run.
func migrateSweepSeeds() int {
	if testing.Short() || raceEnabled {
		return 12
	}
	return 80
}

// TestMigrateSweepFair is the migration harness's main acceptance
// sweep: seed-indexed fair runs with seed-drawn migration plans must
// never dual-grant a key across shards, strand a waiter, or diverge
// the replica-path observer — and the sweep must actually commit
// migrations and bounce clients at fences, or the oracles are vacuous.
func TestMigrateSweepFair(t *testing.T) {
	seeds := migrateSweepSeeds()
	var migrations, bounced, fenceBounced int
	for s := 0; s < seeds; s++ {
		seed := int64(9_400_000 + s)
		shards := 2 + s%2
		res := SweepMigrate(graph.Grid(3, 3), seed, 160, shards, 3, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v lost=%v diverge=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 160 -shards %d -migrations 3 -mode migrate -trace",
				seed, res.DualGrants, res.LostWaiters, res.Divergence,
				res.SafetyViolations, res.HistoryViolations, seed, shards)
		}
		migrations += res.Migrations
		bounced += res.Bounced
		fenceBounced += res.FenceBounced
	}
	if migrations == 0 {
		t.Fatal("sweep committed no migrations; oracles never exercised")
	}
	if fenceBounced == 0 {
		t.Fatal("no client ever bounced off a migration fence across the sweep")
	}
	_ = bounced // post-grant bounces need a grant to race the fence; not every sweep draws one
}

// TestMigrateSweepAdversarial: under free adversarial schedules the
// exclusion and divergence oracles must still hold — the adversary
// controls progress, not placement.
func TestMigrateSweepAdversarial(t *testing.T) {
	seeds := migrateSweepSeeds() / 2
	for s := 0; s < seeds; s++ {
		seed := int64(9_500_000 + s)
		res := SweepMigrateAdversarial(graph.Ring(6), seed, 120, 2, 3, false)
		if len(res.DualGrants)+len(res.Divergence)+
			len(res.SafetyViolations)+len(res.HistoryViolations) != 0 {
			t.Errorf("seed %d: dual=%v diverge=%v safety=%v history=%v",
				seed, res.DualGrants, res.Divergence, res.SafetyViolations, res.HistoryViolations)
		}
	}
}

// TestMigrateSweepChaos is the crash-during-migration campaign: nodes
// on both shards crash (some maliciously) and restart while keys
// migrate. Restart fences empty lease tables mid-drain; the oracles
// must hold through every interleaving, and the sweep must exercise
// both commit and at least one drain abort.
func TestMigrateSweepChaos(t *testing.T) {
	seeds := migrateSweepSeeds() / 2
	var migrations, aborted int
	for s := 0; s < seeds; s++ {
		seed := int64(9_600_000 + s)
		res := SweepMigrateChaos(graph.Grid(3, 3), seed, 180, 2, 3, 2, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v lost=%v diverge=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 180 -shards 2 -migrations 3 -crash 2 -mode migrate -trace",
				seed, res.DualGrants, res.LostWaiters, res.Divergence,
				res.SafetyViolations, res.HistoryViolations, seed)
		}
		migrations += res.Migrations
		aborted += res.MigrationsAborted
	}
	if migrations == 0 {
		t.Fatal("chaos sweep committed no migrations")
	}
	if aborted == 0 {
		t.Fatal("chaos sweep aborted no migrations; the drain-timeout path never fired")
	}
}

// TestMigrateSweepAuto closes the loop: no explicit plan — the skewed
// workload must make control.Decide (the SAME control law the live
// rebalanceLoop runs) sense the hot shard and migrate keys off it,
// with every oracle still green.
func TestMigrateSweepAuto(t *testing.T) {
	seeds := migrateSweepSeeds() / 2
	var migrations int
	for s := 0; s < seeds; s++ {
		seed := int64(9_700_000 + s)
		res := SweepMigrateAuto(graph.Grid(3, 3), seed, 200, 2, false)
		if res.Failed() {
			t.Errorf("seed %d: dual=%v lost=%v diverge=%v safety=%v history=%v",
				seed, res.DualGrants, res.LostWaiters, res.Divergence,
				res.SafetyViolations, res.HistoryViolations)
		}
		migrations += res.Migrations
	}
	if migrations == 0 {
		t.Fatal("closed loop never migrated; the controller sensed nothing across the sweep")
	}
}

// TestMigrateUnfencedFiresDualGrantOracle is the negative control: a
// migration that commits without fencing or draining — the shortcut
// the production protocol forbids — must be CAUGHT by the dual-grant
// oracle. If no unfenced seed trips it, the oracle is vacuous and the
// whole sweep above proves nothing.
func TestMigrateUnfencedFiresDualGrantOracle(t *testing.T) {
	fired := false
	for s := 0; s < 40 && !fired; s++ {
		seed := int64(9_800_000 + s)
		src := NewRand(seed)
		res := RunMigrate(MigrateConfig{
			ClusterConfig: ClusterConfig{
				Graph:  graph.Ring(6),
				Shards: 2,
				Seed:   seed,
				Rounds: 160,
				Source: src,
			},
			// Long holds and a very hot key: an override flipped with a
			// live holder all but guarantees a second grant at the new
			// home inside the hold window.
			HotPercent:    85,
			MaxHoldRounds: 12,
			Unfenced:      true,
			Migrations:    migratePlan(src, 4, 160, 24),
		})
		if len(res.DualGrants) > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("unfenced migrations never tripped the dual-grant oracle: the oracle is vacuous")
	}
}

// TestSpanSweepMigrate: key overrides land while spans are
// mid-prepare. Displaced spans must roll back and terminate, atomicity
// must hold across the placement change, and the sweep must actually
// displace spans through migrations, or the interaction is untested.
func TestSpanSweepMigrate(t *testing.T) {
	// At least 24 seeds even under -short and -race: with uncontended
	// sub-acquires granted at hand, spans spend few rounds mid-prepare,
	// and a migration displaces one on only every third seed or so.
	seeds := max(migrateSweepSeeds()/2, 24)
	var migrations, displaced int
	for s := 0; s < seeds; s++ {
		seed := int64(9_900_000 + s)
		res := SweepSpanMigrate(graph.Grid(3, 3), seed, 160, 3, 3, false)
		if res.Failed() {
			t.Errorf("seed %d: partial=%v overlap=%v orphan=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 160 -shards 3 -migrations 3 -mode span -trace",
				seed, res.PartialCommits, res.OverlapViolations, res.OrphanedSpans,
				res.SafetyViolations, res.HistoryViolations, seed)
		}
		migrations += res.Migrations
		displaced += res.Displaced
	}
	if migrations == 0 {
		t.Fatal("migrate-during-span sweep installed no overrides")
	}
	if displaced == 0 {
		t.Fatal("no span was ever displaced by a migration; the fence path never fired")
	}
}

// TestMigrateSameSeedIdenticalTrace: one seed names one execution —
// clients, migrations, crashes, and all.
func TestMigrateSameSeedIdenticalTrace(t *testing.T) {
	a := SweepMigrateChaos(graph.Grid(3, 3), 91, 120, 2, 2, 1, false)
	b := SweepMigrateChaos(graph.Grid(3, 3), 91, 120, 2, 2, 1, false)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed diverged: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Granted != b.Granted || a.Migrations != b.Migrations || a.Generation != b.Generation {
		t.Fatalf("same seed diverged on counters: %+v vs %+v", a, b)
	}
	c := SweepMigrateChaos(graph.Grid(3, 3), 92, 120, 2, 2, 1, false)
	if a.TraceHash == c.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestMigrateGrantsFlow: a healthy run with migrations still grants,
// releases, and accounts for every client.
func TestMigrateGrantsFlow(t *testing.T) {
	res := SweepMigrate(graph.Ring(6), 5, 200, 2, 3, false)
	if res.Submitted == 0 || res.Granted == 0 {
		t.Fatalf("workload never flowed: %+v", res)
	}
	if res.Granted != res.Released {
		t.Fatalf("grant/release accounting leaked: %d granted, %d released", res.Granted, res.Released)
	}
	terminated := res.Granted + res.Bounced + res.Timeouts + res.Canceled
	if terminated != res.Submitted {
		t.Fatalf("client accounting leaked: %d submitted, %d terminated", res.Submitted, terminated)
	}
	if res.Failed() {
		t.Fatalf("healthy migration run failed: %+v", res)
	}
}

// FuzzMigration: byte-drawn migration plans, fault plans, and
// schedules over the fenced protocol must never dual-grant a key
// across shards, strand a waiter, diverge the observer ring, or break
// per-shard safety and history legality.
func FuzzMigration(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x05})
	f.Add([]byte("key migration schedule with fences drains crashes and bounces"))
	f.Add([]byte{0x9a, 0x02, 0x77, 0x31, 0xe0, 0x4c, 0x18, 0xff, 0x00, 0x63, 0x2b, 0xd4})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		g := fuzzTopology(src)
		shards := 2 + src.Intn(2)
		rounds := 60 + src.Intn(60)
		cfg := MigrateConfig{
			ClusterConfig: ClusterConfig{
				Graph:  g,
				Shards: shards,
				Seed:   1,
				Rounds: rounds,
				Source: src,
			},
			Migrations: migratePlan(src, 1+src.Intn(3), rounds, 24),
		}
		if src.Intn(2) == 1 {
			cfg.Auto = true // closed loop layered over the explicit plan
		}
		if src.Intn(2) == 1 {
			cfg.crashCampaign(1, rounds/2, 4, 5, 15)
		}
		res := RunMigrate(cfg)
		if res.Failed() {
			t.Fatalf("migration run failed on %s shards=%d rounds=%d: dual=%v lost=%v diverge=%v safety=%v history=%v",
				g.Name(), shards, rounds, res.DualGrants, res.LostWaiters,
				res.Divergence, res.SafetyViolations, res.HistoryViolations)
		}
	})
}
