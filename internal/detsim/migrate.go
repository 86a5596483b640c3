// Live key-migration simulation: the Router's fence/drain/commit of
// coord.Migration itself — lockservice.RouterCore's Fence, Drain and
// Commit — driven in lockstep rounds, with its sensor half
// (internal/control) closing the loop. A cluster of K shard substrates
// advances while single-key clients acquire, hold, and release; this
// harness moves keys between shards mid-traffic — either from an
// explicit plan or closed-loop through control.Controller, the SAME
// controller the production rebalance loop runs — playing the
// Router's wall-clock shell: a drain probe is a count of the source's
// client-visible grants, and the commit step lands a drawn few rounds
// after the drain was observed (the coordinator being descheduled
// between its last look and taking the placement lock). Clients resolve
// placement and run the post-grant check on the same core, and every
// lease lives in a shard's lockservice.ShardCore. What is the harness's
// own: the workload, the plans, the fault model and the oracles, which
// check the properties the protocol owes its clients:
//
//   - dual-grant-across-epochs: no round may show live leases for one
//     key on two shards — exclusion must span the placement epoch
//     change, not just each shard's arbiter;
//   - lost-waiter: every client terminates (grant+release, 409
//     bounce, or timeout) within its budget even when its key is
//     fenced or its queue entry is stranded on the old home;
//   - override divergence: an observer rebuilding placement from the
//     published RingInfo (lockservice.ReplicaRing, the rebuild clients
//     run) agrees with the authoritative ring on every key after every
//     commit.
//
// The negative control — an override installed at fence time with no
// post-grant check — is a lockservice test hook over RouterCore; runs
// with it must trip the dual-grant oracle, or the oracle is vacuous.
package detsim

import (
	"errors"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/coord"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
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
	// Auto runs the closed loop instead: the Router's controller
	// (control.Controller) senses every grant, plans every DecideEvery
	// rounds, and its plans run under the fenced protocol.
	Auto bool
	// DecideEvery is the closed-loop control period in rounds (default 10).
	DecideEvery int
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

// defaultDrainRounds is the drain budget of a migration, in rounds,
// unless MigrateConfig.DrainRounds sets it.
const defaultDrainRounds = 12

// migration is one in-flight migration: the core's fence plus where its
// driver stands. commitAt is -1 while the drain is still being probed.
type migration struct {
	*coord.Migration
	drained  bool
	commitAt int
}

// commitLag draws the rounds between a drain's last probe and the
// commit step. Usually none; one time in four the coordinator stalls for
// up to two drain budgets — long enough for the fence to expire under a
// drain observation that was true when it was made, and for the source to
// grant the key again before the commit step runs.
func (c *cluster) commitLag(drainRounds int) int {
	if c.src.Intn(4) != 0 {
		return 0
	}
	return 1 + c.src.Intn(2*drainRounds)
}

// startMigration asks the core to fence key for a move to shard to
// (To < 0: the next ring member) with a drain budget of drainRounds; it
// reports whether the core accepted the request.
func (c *cluster) startMigration(t int, key string, to, drainRounds int) bool {
	src, ok := c.router.Lookup(key)
	if !ok {
		return false
	}
	budget := time.Duration(drainRounds) * roundTime
	m, why := c.router.Fence(key, c.migrationTarget(src, to), budget, func(int) bool { return true }, roundEnd(t))
	if why != coord.MigrateOK {
		return false
	}
	c.migrating = append(c.migrating, &migration{Migration: m, commitAt: -1})
	c.h.event("t%d fence %s shard%d->%d", t, key, m.Src, m.Dst)
	return true
}

// stepMigrations drives every in-flight migration one round: probe the
// drain, and — once the drain has been observed or has timed out, and
// the drawn commit lag has passed — commit it on the core, telling
// ended how it went (a nil error: committed).
func (c *cluster) stepMigrations(t, drainRounds int, ended func(m *coord.Migration, err error)) {
	now := roundEnd(t)
	kept := c.migrating[:0]
	for _, m := range c.migrating {
		if m.commitAt < 0 {
			switch c.router.Drain(m.Migration, c.cores[m.Src].LeasesOn(m.Key), now) {
			case coord.Drained:
				m.drained = true
				m.commitAt = t + c.commitLag(drainRounds)
			case coord.DrainTimedOut:
				m.commitAt = t
			}
		}
		if m.commitAt < 0 || t < m.commitAt {
			kept = append(kept, m)
			continue
		}
		verdict, err := c.router.Commit(m.Migration, m.drained, c.cores[m.Src].LeasesOn, now)
		if err == nil && verdict.Aborted() {
			err = errors.New(verdict.String())
		}
		c.h.event("t%d %v %s shard%d->%d gen%d: %v", t, verdict, m.Key, m.Src, m.Dst, c.router.Generation(), err)
		ended(m.Migration, err)
	}
	c.migrating = kept
}

// migHarness is a cluster plus clients, sensors, and migration state.
type migHarness struct {
	*cluster
	cfg MigrateConfig

	// ctl is the Router's hot-key controller on the virtual clock (nil
	// unless Auto).
	ctl *control.Controller

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
		cfg.DrainRounds = defaultDrainRounds
	}
	if cfg.DecideEvery <= 0 {
		cfg.DecideEvery = 10
	}
	c := newCluster(cfg.ClusterConfig, "migrate")
	cfg.ClusterConfig = c.cfg
	h := &migHarness{cluster: c, cfg: cfg, res: &MigrateResult{}}
	if cfg.Auto {
		// Sensors decay by about a tenth a period; a moved key waits four.
		period := time.Duration(cfg.DecideEvery) * roundTime
		h.ctl = control.New(control.Config{Shards: cfg.Shards, TopK: 8, Interval: period,
			HalfLife: 7 * period, Cooldown: 4 * period, MinLoad: 8})
	}
	return h
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
	if h.ctl != nil && t > 0 && t%h.cfg.DecideEvery == 0 {
		h.autoDecide(t)
	}
}

// releaseDue releases grants whose hold expired.
func (h *migHarness) releaseDue(t int) {
	for _, ms := range h.clients {
		if !ms.done && ms.id != "" && ms.release <= t {
			ms.end()
			h.res.Released++
			h.h.event("t%d release %s shard%d node%d", t, ms.keys[0], ms.shard, ms.sess.Home)
		}
	}
}

// stepMigrations fires plan entries due this round and drives every
// in-flight migration one step. Each commit runs the observer oracle,
// and the controller hears every outcome, as rebalanceLoop reports
// MigrateKey's.
func (h *migHarness) stepMigrations(t int) {
	for _, km := range h.cfg.Migrations {
		if km.Round == t {
			h.startMigration(t, h.keys[km.KeyIndex%len(h.keys)], km.To)
		}
	}
	h.cluster.stepMigrations(t, h.cfg.DrainRounds, func(m *coord.Migration, err error) {
		if h.ctl != nil {
			h.ctl.Done(control.Plan{Key: m.Key, From: m.Src, To: m.Dst}, err)
		}
		if err != nil {
			h.res.MigrationsAborted++
			return
		}
		h.res.Migrations++
		h.checkObserver(t, m.Key)
	})
}

// startMigration fences one key for migration, reporting whether the
// core accepted the request.
func (h *migHarness) startMigration(t int, key string, to int) bool {
	ok := h.cluster.startMigration(t, key, to, h.cfg.DrainRounds)
	if ok {
		h.res.MigrationsStarted++
	}
	return ok
}

// timeoutPending withdraws clients whose wait budget elapsed — the
// round-domain DefaultTimeout. Waiters stranded on a migrated key's
// old home terminate here if the post-grant bounce does not get them
// first; either way the lost-waiter oracle stays quiet.
func (h *migHarness) timeoutPending(t int) {
	for _, ms := range h.clients {
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
	parts, err := h.router.Parts([]string{key}, roundEnd(t))
	if errors.Is(err, lockservice.ErrWrongShard) {
		h.res.FenceBounced++
		h.h.event("t%d 409 %s (fenced)", t, key)
		return
	}
	if err != nil {
		return
	}
	s := parts[0].Shard
	ms := h.submit(parts[0].Keys, s, t)
	if ms == nil {
		return
	}
	h.res.Submitted++
	h.h.event("t%d submit %s shard%d home=%d", t, key, s, ms.sess.Home)
}

// pumpClients pumps every core and turns each fresh grant into a lease,
// then applies the core's post-grant check: a lease on a fenced or
// re-placed key is released before the client sees it; the rest become
// client-visible holds and feed the sensors.
func (h *migHarness) pumpClients(t int) {
	for _, core := range h.cores {
		core.Pump()
	}
	for _, ms := range h.clients {
		if ms.done || !ms.granted() {
			continue
		}
		ms.lease(0)
		if !h.router.StillPlaced([]coord.Part{{Shard: ms.shard, Keys: ms.keys}}, roundEnd(t)) {
			ms.end()
			h.res.Bounced++
			cur, _ := h.router.Lookup(ms.keys[0])
			h.h.event("t%d bounce %s shard%d (placed shard%d)", t, ms.keys[0], ms.shard, cur)
			continue
		}
		ms.release = t + 1 + h.src.Intn(h.cfg.MaxHoldRounds)
		h.res.Granted++
		if h.ctl != nil {
			h.ctl.Observe(ms.shard, ms.keys, time.Duration(t-ms.born)*roundTime)
		}
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

// autoDecide runs one control period of the controller and fences each
// planned move — the detsim twin of Router.rebalanceLoop; a move the
// core refuses fails at once.
func (h *migHarness) autoDecide(t int) {
	for _, p := range h.ctl.Plan(roundEnd(t)) {
		if !h.startMigration(t, p.Key, p.To) {
			h.ctl.Done(p, errors.New("refused"))
		}
	}
}

// checkObserver rebuilds placement from the published RingInfo the way
// every replica does (lockservice.ReplicaRing) and requires agreement
// with the authoritative ring on every key.
func (h *migHarness) checkObserver(t int, cause string) {
	info := h.router.RingInfo()
	obs := lockservice.ReplicaRing(&info)
	if obs == nil {
		record(&h.res.Divergence, "t%d after %s: the published ring does not rebuild", t, cause)
		return
	}
	for _, k := range h.keys {
		want, okW := h.router.Lookup(k)
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
	for _, ms := range h.clients {
		if !ms.done && rounds-ms.born >= budget {
			record(&res.LostWaiters, "client for %s on shard %d born t%d never terminated in %d rounds",
				ms.keys[0], ms.shard, ms.born, rounds-ms.born)
		}
	}
	drain(h.clients, &res.Released, &res.Canceled)
	res.Generation = h.router.Generation()
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

// SweepMigrateHot is the negative controls' workload: a very hot key
// and holds as long as the drain budget over the explicit plan, so a
// move committed while the source still holds the key all but
// guarantees a second grant at the new home inside the hold window.
func SweepMigrateHot(g *graph.Graph, seed int64, rounds, shards, moves int, trace bool) *MigrateResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	return RunMigrate(MigrateConfig{
		ClusterConfig: c,
		HotPercent:    85,
		MaxHoldRounds: 12,
		Migrations:    migratePlan(c.Source, moves, rounds, 24),
	})
}

// SweepMigrateRestartHolder is the migrating-holder restart campaign
// over SweepMigrateChaos's workload: while a migration drains, the home
// of one client's lease on the migrating key reboots, clean or garbage —
// once per migration, at the first round such a holder exists. Its
// restart fences the lease the drain is waiting on, so the drain and
// commit run against a lease table the fence just emptied.
func SweepMigrateRestartHolder(g *graph.Graph, seed int64, rounds, shards, moves int, trace bool) *MigrateResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	h := newMigHarness(MigrateConfig{
		ClusterConfig: c,
		MaxHoldRounds: 8,
		DrainRounds:   4,
		Migrations:    migratePlan(c.Source, moves, rounds, 24),
	})
	hit := map[*coord.Migration]bool{}
	for t := 0; t < rounds; t++ {
		for _, m := range h.migrating {
			if !hit[m.Migration] && h.restartHolder(t, func(cl *client) bool { return cl.shard == m.Src && cl.keys[0] == m.Key }) {
				hit[m.Migration] = true
			}
		}
		h.round(t)
	}
	return h.finish()
}
