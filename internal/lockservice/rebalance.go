package lockservice

import (
	"errors"
	"fmt"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/coord"
	"mcdp/internal/stats"
)

// This file is the actuator half of the hot-key feedback loop
// (internal/control is the sensor/decision half): MigrateKey drives
// coord.Migration — the fence/drain/commit protocol and every verdict in
// it — against the live ring and shards, and rebalanceLoop runs the
// controller against MigrateKey.

// migrationDrainPoll is the lease-drain polling period.
const migrationDrainPoll = time.Millisecond

// errMigrateInvalid tags MigrateKey failures that are defects in the
// request itself (a shard index that does not exist) rather than
// migration-state conflicts; the HTTP surface maps it to 400 where
// state conflicts — already migrating, drain timeout, leaderless
// destination — stay 409.
var errMigrateInvalid = errors.New("lockservice: invalid migrate request")

// migrationDrain resolves the configured drain budget.
func (r *Router) migrationDrain() time.Duration {
	if r.cfg.MigrationDrain > 0 {
		return r.cfg.MigrationDrain
	}
	// NewServer defaulted DefaultTTL on every shard: a lease abandoned
	// by its holder expires within one TTL, so TTL plus slack bounds
	// every honest drain.
	return r.sets[0].Primary().cfg.DefaultTTL + 500*time.Millisecond
}

// Controller returns the hot-key controller (nil when rebalancing is
// disabled) — status surfaces and tests.
func (r *Router) Controller() *control.Controller { return r.ctl }

// MigrateKey moves key to shard dst under coord.Migration's
// fence/drain/commit protocol. It blocks for up to the drain budget and
// returns nil once new acquires for the key route to dst. Callers: the
// controller loop and POST /v1/admin/migrate.
func (r *Router) MigrateKey(key string, dst int) error {
	drain := r.migrationDrain()
	r.mu.Lock()
	req := coord.MigrateRequest{Dst: dst, Shards: len(r.sets), DstInRing: r.ring.Has(dst)}
	req.Src, req.Placed = r.ring.Lookup(key)
	req.Fenced = r.fencedLocked(key, r.now()) != nil
	req.DstHealthy = req.DstInRing && r.sets[dst].primaryHealthy()
	if why := req.Check(); why != coord.MigrateOK {
		r.mu.Unlock()
		switch {
		case why == coord.RefuseUnplaced:
			return ErrUnserviceable
		case why.Invalid():
			return fmt.Errorf("%w: migrate %q to shard %d of %d: %v", errMigrateInvalid, key, dst, len(r.sets), why)
		}
		return fmt.Errorf("lockservice: migrate %q to shard %d: %v", key, dst, why)
	}
	m := &coord.Migration{Key: key, Src: req.Src, Dst: dst, Deadline: r.now() + int64(drain)}
	r.migrating[key] = m
	r.ring.Bump() // fence epoch: in-flight resolvers must re-resolve
	r.pushRingGen()
	r.mu.Unlock()

	probe := coord.DrainWait
	for {
		if probe = m.Drain(r.now(), r.sets[m.Src].leasesOn(key)); probe != coord.DrainWait {
			break
		}
		time.Sleep(migrationDrainPoll)
	}

	r.mu.Lock()
	if r.migrating[key] == m { // a successor may have fenced the key once this fence expired
		delete(r.migrating, key)
	}
	placedAt, _ := r.ring.Lookup(key)
	verdict := m.Commit(r.now(), probe == coord.Drained, r.sets[m.Src].leasesOn(key), r.ring.Has(dst), placedAt)
	var err error
	switch {
	case verdict.Aborted():
		err = fmt.Errorf("%v (shard %d -> %d, drain budget %v)", verdict, m.Src, dst, drain)
	case verdict == coord.CommitOverride:
		err = r.ring.SetOverride(key, dst)
	default:
		r.ring.Bump()
	}
	if err != nil {
		// Lift the fence under a fresh epoch so post-grant checks racing
		// the lift stay conservative; placement is unchanged.
		r.ring.Bump()
		r.pushRingGen()
		r.mu.Unlock()
		r.metrics.RebalancesAborted.Add(1)
		return fmt.Errorf("lockservice: migrate %q: %w", key, err)
	}
	r.overrideGen = r.ring.Generation()
	r.pushRingGen()
	r.mu.Unlock()
	r.metrics.Rebalances.Add(1)
	return nil
}

// OverrideState reports the override table's size and the generation
// of its last change (the "override table version" in /v1/status).
func (r *Router) OverrideState() (count int, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.OverrideCount(), r.overrideGen
}

// rebalanceLoop is the live feedback loop: every control period it
// asks the controller for migration plans, actuates them through
// MigrateKey, and publishes derived tuning (429 pacing to the HTTP
// surface, restart backoff to every shard supervisor). One log line
// per actuation, through the controller's sink.
func (r *Router) rebalanceLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.ctl.Interval())
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		for _, p := range r.ctl.Plan(time.Now()) {
			err := r.MigrateKey(p.Key, p.To)
			r.ctl.Done(p, err)
			if err != nil {
				r.ctl.Logf("control: move %q shard %d -> %d aborted: %v", p.Key, p.From, p.To, err)
			} else {
				r.ctl.Logf("control: moved %q shard %d -> %d (ring generation %d)", p.Key, p.From, p.To, r.generation())
			}
		}
		adv := r.ctl.Advice()
		r.advice.Store(&adv)
		for _, set := range r.sets {
			set.Primary().AdviseRestartBackoff(adv.SupervisorBackoff)
		}
	}
}

// controlFamilies declares the feedback loop's series: migration
// outcomes and the sensor's hottest-key share.
func (r *Router) controlFamilies() []stats.Family {
	m := r.metrics
	return []stats.Family{
		stats.Counter("dinerd_rebalance_total", "Key migrations committed (override installed after a clean drain).", m.Rebalances.Load),
		stats.Counter("dinerd_rebalance_aborted_total", "Key migrations that fenced a key but aborted before the override landed.", m.RebalancesAborted.Load),
		stats.Counter("dinerd_migration_fences_total", "Acquires bounced (409) by an in-flight key migration's fence.", m.MigrationFences.Load),
		stats.Gauge("dinerd_hotkey_fraction", "Hottest single key's share of total decayed grant load (0 when the controller is off).", func() float64 {
			if r.ctl == nil {
				return 0
			}
			return r.ctl.Snapshot().HotFraction
		}),
	}
}

// retryAfterHint is the 429 Retry-After value: the controller's
// observed-latency pacing when the loop is running, else the legacy
// fixed second.
func (r *Router) retryAfterHint() string {
	if adv := r.advice.Load(); adv != nil {
		return fmt.Sprintf("%.3f", adv.RetryAfter.Seconds())
	}
	return "1"
}
