package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// spanSweepSeeds scales the span sweeps: the lockstep multi-shard runs
// are K× the cost of a single-substrate run, so sweep fewer seeds.
func spanSweepSeeds() int {
	if testing.Short() || raceEnabled {
		return 12
	}
	return 80
}

// TestSpanSweepFair is the span harness's main acceptance sweep:
// seed-indexed fair runs over 2- and 3-shard rings must produce zero
// partial commits, zero overlapping committed spans, zero orphans, and
// legal per-shard lock histories — and the workload must actually
// exercise the protocol (multi-shard spans commit AND roll back across
// the sweep, or the oracles are vacuous).
func TestSpanSweepFair(t *testing.T) {
	seeds := spanSweepSeeds()
	var commits, rollbacks, multi int
	for s := 0; s < seeds; s++ {
		seed := int64(9_000_000 + s)
		shards := 2 + s%2
		res := SweepSpan(graph.Grid(3, 3), seed, 160, shards, false)
		if res.Failed() {
			t.Errorf("seed %d: partial=%v overlap=%v orphan=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 160 -shards %d -mode span -trace",
				seed, res.PartialCommits, res.OverlapViolations, res.OrphanedSpans,
				res.SafetyViolations, res.HistoryViolations, seed, shards)
		}
		commits += res.Commits
		rollbacks += res.Rollbacks
		multi += res.Spans - res.SingleShard
	}
	if multi == 0 {
		t.Fatal("sweep drew no multi-shard spans; oracles never exercised")
	}
	if commits == 0 {
		t.Fatal("no span ever committed across the sweep")
	}
	if rollbacks == 0 {
		t.Fatal("no span ever rolled back across the sweep; abort paths unexercised")
	}
}

// TestSpanSweepAdversarial: under free adversarial shard schedules the
// span protocol's safety-class oracles must still hold — the adversary
// controls progress, not atomicity.
func TestSpanSweepAdversarial(t *testing.T) {
	seeds := spanSweepSeeds() / 2
	for s := 0; s < seeds; s++ {
		seed := int64(9_100_000 + s)
		res := SweepSpanAdversarial(graph.Ring(6), seed, 120, 2, false)
		if len(res.PartialCommits)+len(res.OverlapViolations)+
			len(res.SafetyViolations)+len(res.HistoryViolations) != 0 {
			t.Errorf("seed %d: partial=%v overlap=%v safety=%v history=%v",
				seed, res.PartialCommits, res.OverlapViolations,
				res.SafetyViolations, res.HistoryViolations)
		}
	}
}

// TestSpanSweepChurn: ring members leave and rejoin mid-run while
// spans are in flight. Displaced spans — multi-key waiters whose
// prepare-holding shard left the ring — must all still terminate (the
// extended displaced-waiter oracle), and atomicity must hold
// throughout. The sweep must actually displace spans, or the oracle is
// vacuous.
func TestSpanSweepChurn(t *testing.T) {
	seeds := spanSweepSeeds() / 2
	var displaced, leaves int
	for s := 0; s < seeds; s++ {
		seed := int64(9_200_000 + s)
		res := SweepSpanChurn(graph.Grid(3, 3), seed, 160, 3, 2, false)
		if res.Failed() {
			t.Errorf("seed %d: partial=%v overlap=%v orphan=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 160 -shards 3 -churn 2 -mode span -trace",
				seed, res.PartialCommits, res.OverlapViolations, res.OrphanedSpans,
				res.SafetyViolations, res.HistoryViolations, seed)
		}
		displaced += res.Displaced
		leaves += res.RingLeaves
	}
	if leaves == 0 {
		t.Fatal("churn sweep executed no ring leaves")
	}
	if displaced == 0 {
		t.Fatal("churn sweep displaced no spans; displaced-span oracle never exercised")
	}
}

// TestSpanSweepChaos is the mid-prepare shard-crash campaign: nodes
// inside shards crash (some maliciously) while spans hold prepares,
// and their restarts fence the sub-leases homed there — which must
// roll back whole spans, never strand partial ones. Full recovery
// means: zero atomicity/orphan violations, legal histories, and the
// fence→rollback path actually taken.
func TestSpanSweepChaos(t *testing.T) {
	seeds := spanSweepSeeds() / 2
	var rollbacks, commits int
	for s := 0; s < seeds; s++ {
		seed := int64(9_300_000 + s)
		res := SweepSpanChaos(graph.Grid(3, 3), seed, 180, 2, 2, false)
		if res.Failed() {
			t.Errorf("seed %d: partial=%v overlap=%v orphan=%v safety=%v history=%v\nreplay: go run ./cmd/detsim -topology grid:3x3 -seed %d -rounds 180 -shards 2 -crash 2 -mode span -trace",
				seed, res.PartialCommits, res.OverlapViolations, res.OrphanedSpans,
				res.SafetyViolations, res.HistoryViolations, seed)
		}
		rollbacks += res.Rollbacks
		commits += res.Commits
	}
	if rollbacks == 0 {
		t.Fatal("chaos sweep rolled back no spans; the fence path never fired")
	}
	if commits == 0 {
		t.Fatal("chaos sweep committed no spans; the service never recovered")
	}
}

// TestSpanSameSeedIdenticalTrace: one seed names one execution, across
// every shard substrate and the coordinator alike.
func TestSpanSameSeedIdenticalTrace(t *testing.T) {
	a := SweepSpanChaos(graph.Grid(3, 3), 77, 120, 2, 1, false)
	b := SweepSpanChaos(graph.Grid(3, 3), 77, 120, 2, 1, false)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed diverged: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Spans != b.Spans || a.Commits != b.Commits || a.Rollbacks != b.Rollbacks {
		t.Fatalf("same seed diverged on counters: %+v vs %+v", a, b)
	}
	c := SweepSpanChaos(graph.Grid(3, 3), 78, 120, 2, 1, false)
	if a.TraceHash == c.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSpanGrantsFlow: a healthy 2-shard run commits spans and drains
// every one of them.
func TestSpanGrantsFlow(t *testing.T) {
	res := SweepSpan(graph.Ring(6), 5, 200, 2, false)
	if res.Spans == 0 {
		t.Fatal("no spans drawn")
	}
	if res.Commits == 0 {
		t.Fatalf("no spans committed (drew %d)", res.Spans)
	}
	if res.Commits+res.Rollbacks != res.Spans {
		t.Fatalf("span accounting leaked: %d spans, %d commits, %d rollbacks",
			res.Spans, res.Commits, res.Rollbacks)
	}
	if res.Failed() {
		t.Fatalf("healthy span run failed: %+v", res)
	}
}

// FuzzCrossShardAcquire: byte-drawn shard counts, ring-churn plans,
// crash plans, and schedules must never produce a partially committed
// span, an overlapping commit, a wedged span, or an illegal per-shard
// history.
func FuzzCrossShardAcquire(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x02})
	f.Add([]byte("cross shard span schedule with churn and crash interleavings"))
	f.Add([]byte{0xee, 0x10, 0x07, 0x99, 0x3c, 0x51, 0x00, 0xff, 0x28, 0x6a, 0x05, 0xb2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		g := fuzzTopology(src)
		shards := 2 + src.Intn(2)
		rounds := 60 + src.Intn(60)
		cfg := SpanConfig{
			ClusterConfig: ClusterConfig{
				Graph:  g,
				Shards: shards,
				Seed:   1,
				Rounds: rounds,
				Source: src,
			},
		}
		// Maybe a ring churn window, maybe per-shard crashes+fences —
		// all drawn from the same byte source as the schedule.
		if src.Intn(2) == 1 {
			s := src.Intn(shards)
			at := src.Intn(rounds/2 + 1)
			cfg.RingChurn = []RingChurn{{Shard: s, Leave: at, Join: at + 5 + src.Intn(20)}}
		}
		if src.Intn(2) == 1 {
			cfg.crashCampaign(1, rounds/2, 4, 5, 15)
		}
		res := RunSpan(cfg)
		if res.Failed() {
			t.Fatalf("span run failed on %s shards=%d rounds=%d: partial=%v overlap=%v orphan=%v safety=%v history=%v",
				g.Name(), shards, rounds, res.PartialCommits, res.OverlapViolations,
				res.OrphanedSpans, res.SafetyViolations, res.HistoryViolations)
		}
	})
}
