// Live key-migration simulation: coord.Migration — the Router's
// fence/drain/commit protocol itself — driven in lockstep rounds, with
// its sensor half (internal/control) closing the loop. A cluster of K
// shard substrates advances while single-key clients acquire, hold, and
// release; this harness moves keys between shards mid-traffic — either
// from an explicit plan or closed-loop through control.Decide, the SAME
// pure control law the production rebalance loop runs — by executing the
// machine's verdicts against the ring: a drain probe is a count of the
// source's client-visible grants, the commit step lands a drawn few
// rounds after the drain was observed (the coordinator being descheduled
// between its last look and taking the placement lock). Every lease
// lives in a shard's lockservice.ShardCore. What is the harness's own:
// the workload, the plans, the fault model and the oracles, which check
// the properties the protocol owes its clients:
//
//   - dual-grant-across-epochs: no round may show live leases for one
//     key on two shards — exclusion must span the placement epoch
//     change, not just each shard's arbiter;
//   - lost-waiter: every client terminates (grant+release, 409
//     bounce, or timeout) within its budget even when its key is
//     fenced or its queue entry is stranded on the old home;
//   - override divergence: an observer rebuilding placement from the
//     published override table (the replica path,
//     shard.Ring.SetOverrides) agrees with the authoritative ring on
//     every key after every commit.
//
// The Unfenced knob is the negative control: it commits the override
// without fencing or draining, exactly the shortcut the production
// protocol exists to forbid — runs with it on must trip the dual-grant
// oracle, or the oracle is vacuous.
package detsim

import (
	"mcdp/internal/control"
	"mcdp/internal/coord"
	"mcdp/internal/graph"
	"mcdp/internal/shard"
)

// KeyMigration schedules one key move: at Round, migrate the KeyIndex-th
// synthetic key to shard To (To < 0 picks the next ring member after
// the key's current placement, so plans stay valid under any seed).
type KeyMigration struct {
	KeyIndex int
	Round    int
	To       int
}

// MigrateConfig describes one deterministic key-migration run.
type MigrateConfig struct {
	ClusterConfig
	// SubmitPercent is the per-round chance a new client arrives
	// (default 60).
	SubmitPercent int
	// HotPercent is the share of arrivals naming key 0 — the hot key
	// migrations chase (default 40; the rest draw uniformly).
	HotPercent int
	// MaxHoldRounds bounds a grant's hold (default 3).
	MaxHoldRounds int
	// AcquireRounds is the client wait budget: a session pending that
	// long is canceled, the round-domain DefaultTimeout (default 40).
	AcquireRounds int
	// DrainRounds is the migration drain budget (default 12).
	DrainRounds int
	// Migrations is the explicit migration plan.
	Migrations []KeyMigration
	// Auto runs the closed loop instead: every DecideEvery rounds the
	// harness feeds its per-shard sensor sketches to control.Decide and
	// actuates the returned plans under the fenced protocol.
	Auto bool
	// DecideEvery is the closed-loop control period in rounds (default 10).
	DecideEvery int
	// Unfenced commits overrides immediately — no fence, no drain, no
	// post-grant check. Negative control ONLY.
	Unfenced bool
}

// MigrateResult is the outcome of one key-migration run.
type MigrateResult struct {
	ClusterResult
	// Client counters: FenceBounced clients hit a fenced key at
	// placement resolution; Bounced grants were revoked by the
	// post-grant placement check before the client saw them.
	Submitted, Granted, Released, FenceBounced, Bounced, Timeouts, Canceled int
	// Migration counters.
	MigrationsStarted, Migrations, MigrationsAborted int
	// Generation is the final ring generation.
	Generation uint64
	// DualGrants lists rounds where one key was leased on two shards at
	// once — the cross-epoch exclusion violation.
	DualGrants []string
	// LostWaiters lists clients that never terminated within budget.
	LostWaiters []string
	// Divergence lists keys where a replica-path observer ring
	// disagreed with the authoritative ring after a commit.
	Divergence []string
}

// Failed reports whether the run violated any checked property.
func (r *MigrateResult) Failed() bool {
	return len(r.DualGrants) > 0 || len(r.LostWaiters) > 0 || len(r.Divergence) > 0 ||
		len(r.SafetyViolations) > 0 || len(r.HistoryViolations) > 0 || len(r.LeaseViolations) > 0
}

// migMigration is one in-flight migration: the machine plus where its
// driver stands. commitAt is -1 while the drain is still being probed.
type migMigration struct {
	coord.Migration
	drained  bool
	commitAt int
}

// commitLag draws the rounds between a drain's last probe and the
// commit step. Usually none; one time in four the coordinator stalls for
// up to two drain budgets — long enough for the fence to expire under a
// drain observation that was true when it was made, and for the source to
// grant the key again before the commit step runs.
func (h *migHarness) commitLag() int {
	if h.src.Intn(4) != 0 {
		return 0
	}
	return 1 + h.src.Intn(2*h.cfg.DrainRounds)
}

// migCommit judges a migration's commit step. The mutation test swaps
// it for a verdict that commits on an expired fence.
var migCommit = (*coord.Migration).Commit

// migHarness is a cluster plus clients, sensors, and migration state.
type migHarness struct {
	*cluster
	cfg MigrateConfig

	sessions  []*client
	migrating []*migMigration // in fence order

	// Closed-loop sensors: the detsim twin of Router.ctl.
	sketches []*control.Sketch
	loads    []float64
	lastMove map[string]int

	res *MigrateResult
}

// RunMigrate executes one deterministic key-migration run.
func RunMigrate(cfg MigrateConfig) *MigrateResult {
	h := newMigHarness(cfg)
	for t := 0; t < h.cfg.Rounds; t++ {
		h.round(t)
	}
	return h.finish()
}

func newMigHarness(cfg MigrateConfig) *migHarness {
	if cfg.SubmitPercent <= 0 {
		cfg.SubmitPercent = 60
	}
	if cfg.HotPercent <= 0 {
		cfg.HotPercent = 40
	}
	if cfg.MaxHoldRounds <= 0 {
		cfg.MaxHoldRounds = 3
	}
	if cfg.AcquireRounds <= 0 {
		cfg.AcquireRounds = 40
	}
	if cfg.DrainRounds <= 0 {
		cfg.DrainRounds = 12
	}
	if cfg.DecideEvery <= 0 {
		cfg.DecideEvery = 10
	}
	c := newCluster(cfg.ClusterConfig, "migrate")
	cfg.ClusterConfig = c.cfg
	h := &migHarness{
		cluster:  c,
		cfg:      cfg,
		lastMove: make(map[string]int),
		loads:    make([]float64, cfg.Shards),
		res:      &MigrateResult{},
	}
	for s := 0; s < cfg.Shards; s++ {
		h.sketches = append(h.sketches, control.NewSketch(8))
	}
	return h
}

// fence returns the migration currently fencing key at round t, nil
// when none does — an expired fence is as good as absent.
func (h *migHarness) fence(key string, t int) *coord.Migration {
	for _, m := range h.migrating {
		if m.Key == key && m.Fences(int64(t)) {
			return &m.Migration
		}
	}
	return nil
}

// round advances everything by one lockstep round (node fences and the
// janitor run inside advance: a client whose lease they revoked finds
// out when it releases).
func (h *migHarness) round(t int) {
	h.advance(t)
	h.releaseDue(t)
	h.stepMigrations(t)
	h.timeoutPending(t)
	h.drawClient(t)
	h.pumpClients(t)
	h.checkDualGrants(t)
	if h.cfg.Auto && t > 0 && t%h.cfg.DecideEvery == 0 {
		h.autoDecide(t)
	}
}

// releaseDue releases grants whose hold expired.
func (h *migHarness) releaseDue(t int) {
	for _, ms := range h.sessions {
		if !ms.done && ms.id != "" && ms.release <= t {
			ms.end()
			h.res.Released++
			h.h.event("t%d release %s shard%d node%d", t, ms.keys[0], ms.shard, ms.sess.Home)
		}
	}
}

// startMigration fences one key for migration (or, under the Unfenced
// negative control, commits it immediately); a request the protocol
// refuses starts nothing.
func (h *migHarness) startMigration(t int, key string, to int) {
	req := coord.MigrateRequest{Shards: h.cfg.Shards, DstHealthy: true, Fenced: h.fence(key, t) != nil}
	req.Src, req.Placed = h.ring.Lookup(key)
	req.Dst = h.migrationTarget(req.Src, to)
	req.DstInRing = h.ring.Has(req.Dst)
	if req.Check() != coord.MigrateOK {
		return
	}
	h.res.MigrationsStarted++
	if h.cfg.Unfenced {
		// The forbidden shortcut: flip placement with live leases.
		if err := h.ring.SetOverride(key, req.Dst); err == nil {
			h.res.Migrations++
			h.h.event("t%d UNFENCED migrate %s shard%d->%d", t, key, req.Src, req.Dst)
		}
		return
	}
	h.migrating = append(h.migrating, &migMigration{
		Migration: coord.Migration{Key: key, Src: req.Src, Dst: req.Dst, Deadline: int64(t + h.cfg.DrainRounds)},
		commitAt:  -1,
	})
	h.ring.Bump() // fence epoch: in-flight resolvers must re-resolve
	h.h.event("t%d fence %s shard%d->%d", t, key, req.Src, req.Dst)
}

// stepMigrations fires plan entries due this round and drives every
// in-flight migration one step: probe the drain, and — once the drain
// has been observed or has timed out, and the drawn commit lag has
// passed — apply the machine's commit verdict to the ring.
func (h *migHarness) stepMigrations(t int) {
	for _, km := range h.cfg.Migrations {
		if km.Round == t {
			h.startMigration(t, h.keys[km.KeyIndex%len(h.keys)], km.To)
		}
	}
	kept := h.migrating[:0]
	for _, m := range h.migrating {
		if m.commitAt < 0 {
			switch m.Drain(int64(t), h.cores[m.Src].LeasesOn(m.Key)) {
			case coord.Drained:
				m.drained = true
				m.commitAt = t + h.commitLag()
			case coord.DrainTimedOut:
				m.commitAt = t
			}
		}
		if m.commitAt < 0 || t < m.commitAt {
			kept = append(kept, m)
			continue
		}
		placedAt, _ := h.ring.Lookup(m.Key)
		verdict := migCommit(&m.Migration, int64(t), m.drained, h.cores[m.Src].LeasesOn(m.Key), h.ring.Has(m.Dst), placedAt)
		var err error
		switch verdict {
		case coord.CommitOverride:
			err = h.ring.SetOverride(m.Key, m.Dst)
		case coord.CommitBump:
			h.ring.Bump()
		}
		if verdict.Aborted() || err != nil {
			h.ring.Bump() // lift the fence under a fresh epoch
			h.res.MigrationsAborted++
			h.h.event("t%d abort %s shard%d->%d: %v %v", t, m.Key, m.Src, m.Dst, verdict, err)
			continue
		}
		h.res.Migrations++
		h.transferWeight(m.Key, m.Src, m.Dst)
		h.h.event("t%d commit %s shard%d->%d gen%d", t, m.Key, m.Src, m.Dst, h.ring.Generation())
		h.checkObserver(t, m.Key)
	}
	h.migrating = kept
}

// timeoutPending withdraws clients whose wait budget elapsed — the
// round-domain DefaultTimeout. Waiters stranded on a migrated key's
// old home terminate here if the post-grant bounce does not get them
// first; either way the lost-waiter oracle stays quiet.
func (h *migHarness) timeoutPending(t int) {
	for _, ms := range h.sessions {
		if !ms.done && ms.id == "" && t-ms.born >= h.cfg.AcquireRounds {
			ms.end()
			h.res.Timeouts++
			h.h.event("t%d timeout %s shard%d node%d", t, ms.keys[0], ms.shard, ms.sess.Home)
		}
	}
}

// drawClient maybe submits one new single-key client, resolving
// placement against the live ring — a fenced key bounces here with the
// 409 the production router returns from partsFor.
func (h *migHarness) drawClient(t int) {
	if h.src.Intn(100) >= h.cfg.SubmitPercent {
		return
	}
	key := h.keys[0]
	if h.src.Intn(100) >= h.cfg.HotPercent {
		key = h.keys[h.src.Intn(len(h.keys))]
	}
	if h.fence(key, t) != nil {
		h.res.FenceBounced++
		h.h.event("t%d 409 %s (fenced)", t, key)
		return
	}
	s, ok := h.ring.Lookup(key)
	if !ok {
		return
	}
	ms := h.runners[s].submit([]string{key}, s, t)
	if ms == nil {
		return
	}
	h.sessions = append(h.sessions, ms)
	h.res.Submitted++
	h.h.event("t%d submit %s shard%d home=%d", t, key, s, ms.sess.Home)
}

// pumpClients pumps every core and turns each fresh grant into a lease,
// then applies the router's post-grant check (coord.Placed): a lease on
// a fenced or re-placed key is released before the client sees it; the
// rest become client-visible holds and feed the sensors. The Unfenced
// control skips the check — that is the whole point of the control.
func (h *migHarness) pumpClients(t int) {
	for _, core := range h.cores {
		core.Pump()
	}
	migrating := func(key string) *coord.Migration { return h.fence(key, t) }
	for _, ms := range h.sessions {
		if ms.done || !ms.granted() {
			continue
		}
		ms.lease(0)
		if !h.cfg.Unfenced && !coord.Placed(ms.keys, ms.shard, int64(t), h.ring.Lookup, migrating) {
			ms.end()
			h.res.Bounced++
			cur, _ := h.ring.Lookup(ms.keys[0])
			h.h.event("t%d bounce %s shard%d (placed shard%d)", t, ms.keys[0], ms.shard, cur)
			continue
		}
		ms.release = t + 1 + h.src.Intn(h.cfg.MaxHoldRounds)
		h.res.Granted++
		h.sketches[ms.shard].Observe(ms.keys[0], 1)
		h.loads[ms.shard]++
		h.h.event("t%d grant %s shard%d hold=%d", t, ms.keys[0], ms.shard, ms.release-t)
	}
}

// checkDualGrants is the cross-epoch exclusion oracle: after the
// post-grant checks, no key may be leased on two shards in the same
// round.
func (h *migHarness) checkDualGrants(t int) {
	for _, key := range h.keys {
		first := -1
		for s, core := range h.cores {
			if core.LeasesOn(key) == 0 {
				continue
			}
			if first >= 0 {
				record(&h.res.DualGrants, "t%d: key %s granted on shards %d and %d", t, key, first, s)
				break
			}
			first = s
		}
	}
}

// autoDecide runs one closed-loop control period: decay the sensors,
// call the shared control law, and actuate its plans under the fenced
// protocol — the detsim twin of Router.rebalanceLoop.
func (h *migHarness) autoDecide(t int) {
	const decay = 0.9
	for s, sk := range h.sketches {
		sk.Decay(decay)
		h.loads[s] *= decay
	}
	hot := make([][]control.KeyLoad, len(h.sketches))
	for s, sk := range h.sketches {
		hot[s] = sk.TopK()
	}
	eligible := func(key string) bool {
		last, moved := h.lastMove[key]
		return (!moved || t-last >= 4*h.cfg.DecideEvery) && h.fence(key, t) == nil
	}
	for _, p := range control.Decide(h.loads, hot, eligible, 1.3, 8, 1) {
		h.lastMove[p.Key] = t
		h.startMigration(t, p.Key, p.To)
	}
}

// transferWeight moves a committed key's sensor weight to its new
// shard, like Controller.Done.
func (h *migHarness) transferWeight(key string, src, dst int) {
	n := h.sketches[src].Count(key)
	h.sketches[src].Drop(key)
	if n > 0 {
		h.sketches[dst].Observe(key, n)
		h.loads[src] -= n
		h.loads[dst] += n
	}
}

// checkObserver rebuilds placement the way a replica does — same seed
// and membership, overrides bulk-applied from the published table —
// and requires agreement with the authoritative ring on every key.
func (h *migHarness) checkObserver(t int, cause string) {
	obs := shard.New(h.ring.Seed(), h.ring.Vnodes())
	if err := obs.AddAll(h.ring.Members()...); err != nil {
		panic(err) // fresh ring, authoritative member list: unreachable
	}
	obs.SetOverrides(h.ring.Overrides())
	for _, k := range h.keys {
		want, okW := h.ring.Lookup(k)
		got, okG := obs.Lookup(k)
		if okW != okG || want != got {
			record(&h.res.Divergence, "t%d after %s: key %s authoritative shard %d, observer shard %d", t, cause, k, want, got)
		}
	}
}

// finish runs the end-of-run oracles, drains live clients, and
// assembles the result.
func (h *migHarness) finish() *MigrateResult {
	res := h.res
	rounds := h.cfg.Rounds
	budget := h.cfg.AcquireRounds + h.cfg.MaxHoldRounds + 10
	for _, ms := range h.sessions {
		if !ms.done && rounds-ms.born >= budget {
			record(&res.LostWaiters, "client for %s on shard %d born t%d never terminated in %d rounds",
				ms.keys[0], ms.shard, ms.born, rounds-ms.born)
		}
	}
	drain(h.sessions, &res.Released, &res.Canceled)
	res.Generation = h.ring.Generation()
	res.ClusterResult = h.cluster.finish()
	return res
}

// migratePlan draws count migrations of the hot key and uniform others
// from the source, spread over the first two thirds of the run.
func migratePlan(src Source, count, rounds, keyCount int) []KeyMigration {
	var plan []KeyMigration
	for i := 0; i < count; i++ {
		ki := 0 // bias: mostly move the hot key, like the controller would
		if src.Intn(3) == 0 {
			ki = src.Intn(keyCount)
		}
		plan = append(plan, KeyMigration{KeyIndex: ki, Round: 5 + src.Intn(rounds*2/3), To: -1})
	}
	return plan
}

// SweepMigrate is the canonical seed-indexed fair migration run shared
// by the sweep tests and cmd/detsim -mode migrate: seed-drawn plan,
// hot-key workload, full oracle ensemble.
func SweepMigrate(g *graph.Graph, seed int64, rounds, shards, moves int, trace bool) *MigrateResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	return RunMigrate(MigrateConfig{ClusterConfig: c, Migrations: migratePlan(c.Source, moves, rounds, 24)})
}

// SweepMigrateAdversarial is the adversarial-schedule variant: the
// adversary controls shard progress, not placement exclusivity.
func SweepMigrateAdversarial(g *graph.Graph, seed int64, rounds, shards, moves int, trace bool) *MigrateResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	c.Adversarial = true
	return RunMigrate(MigrateConfig{ClusterConfig: c, Migrations: migratePlan(c.Source, moves, rounds, 24)})
}

// SweepMigrateChaos is the crash-during-migration campaign: each shard
// draws kills (some malicious) with clean-or-garbage restarts while
// the migration plan runs — restarts fence leases mid-drain, and the
// oracles must hold through both. A killed worker is restarted 1–4
// rounds later, as promptly as a supervisor would, so a restart lands
// while leases the worker granted are still held. Holds are long
// against a tight drain budget, so the sweep exercises the
// drain-timeout abort path alongside commits.
func SweepMigrateChaos(g *graph.Graph, seed int64, rounds, shards, moves, kills int, trace bool) *MigrateResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	c.crashCampaign(kills, rounds/2, 6, 1, 4)
	return RunMigrate(MigrateConfig{
		ClusterConfig: c,
		MaxHoldRounds: 8,
		DrainRounds:   4,
		Migrations:    migratePlan(c.Source, moves, rounds, 24),
	})
}

// SweepMigrateAuto is the closed-loop variant: no explicit plan — the
// skewed workload must make the shared control law sense the hot shard
// and migrate keys off it under the fenced protocol.
func SweepMigrateAuto(g *graph.Graph, seed int64, rounds, shards int, trace bool) *MigrateResult {
	return RunMigrate(MigrateConfig{ClusterConfig: sweepCluster(g, seed, rounds, shards, trace, nil), Auto: true, HotPercent: 55})
}
