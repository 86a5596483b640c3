package lockservice

import (
	"errors"
	"fmt"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/stats"
)

// This file is the actuator half of the hot-key feedback loop
// (internal/control is the sensor/decision half): MigrateKey moves one
// key between shards under the generation protocol, and rebalanceLoop
// runs the controller against it.
//
// A migration is three moves, each mirroring a fencing contract an
// earlier PR established:
//
//  1. Fence: record the key as migrating and bump the ring generation
//     (the failover idiom — fencing lands before anything new exists).
//     New acquires naming the key bounce with 409 at placement
//     resolution; acquires that resolved placement before the fence
//     and get granted after it are released by the router's post-grant
//     check before any client sees them.
//  2. Drain: wait until the source shard holds no live lease on the
//     key — holders release or their TTL expires (the PR 7/PR 9 drain
//     contract). A drain that outlives MigrationDrain aborts: the
//     fence lifts, placement is unchanged, clients re-resolve to the
//     same home.
//  3. Commit: with the fence deadline still standing and the source
//     re-probed lease-free under the router lock, install the override
//     (which bumps the generation again) and lift the fence. New
//     acquires route to the destination; the 409+generation path walks
//     every client over. A fence that expired before commit aborts
//     unconditionally — once routing stops honoring the fence,
//     acquires may have reached the source again, so the drain
//     observation is stale.
//
// Exclusion across the epoch therefore never depends on timing: a key
// has live leases on at most one shard because the override only lands
// after the source provably drained under a live fence, and no grant
// straddles the fence.

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

// MigrateKey moves key to shard dst under the fence/drain/commit
// protocol above. It blocks for up to the drain budget and returns nil
// once new acquires for the key route to dst. Callers: the controller
// loop and POST /v1/admin/migrate.
func (r *Router) MigrateKey(key string, dst int) error {
	drain := r.migrationDrain()
	r.mu.Lock()
	if dst < 0 || dst >= len(r.sets) {
		r.mu.Unlock()
		return fmt.Errorf("%w: migrate %q: shard %d out of range [0,%d)", errMigrateInvalid, key, dst, len(r.sets))
	}
	src, ok := r.ring.Lookup(key)
	if !ok {
		r.mu.Unlock()
		return ErrUnserviceable
	}
	if src == dst {
		r.mu.Unlock()
		return fmt.Errorf("lockservice: migrate %q: already placed on shard %d", key, dst)
	}
	if !r.ring.Has(dst) {
		r.mu.Unlock()
		return fmt.Errorf("%w: migrate %q: shard %d not in ring", errMigrateInvalid, key, dst)
	}
	if m := r.fencedLocked(key, time.Now()); m != nil {
		r.mu.Unlock()
		return fmt.Errorf("lockservice: migrate %q: already migrating shard %d -> %d", key, m.src, m.dst)
	}
	if !r.sets[dst].primaryHealthy() {
		r.mu.Unlock()
		return fmt.Errorf("lockservice: migrate %q: destination shard %d is leaderless", key, dst)
	}
	m := &migration{key: key, src: src, dst: dst, deadline: time.Now().Add(drain)}
	r.migrating[key] = m
	r.ring.Bump() // fence epoch: in-flight resolvers must re-resolve
	r.pushRingGen()
	r.mu.Unlock()

	drained := false
	for time.Now().Before(m.deadline) {
		if r.sets[src].leasesOn(key) == 0 {
			drained = true
			break
		}
		time.Sleep(migrationDrainPoll)
	}

	r.mu.Lock()
	delete(r.migrating, key)
	abort := func(reason string) error {
		// Lift the fence under a fresh epoch so post-grant checks racing
		// the lift stay conservative; placement is unchanged.
		r.ring.Bump()
		r.pushRingGen()
		r.mu.Unlock()
		r.metrics.RebalancesAborted.Add(1)
		return fmt.Errorf("lockservice: migrate %q: %s", key, reason)
	}
	if !drained {
		return abort(fmt.Sprintf("shard %d leases did not drain within %v", src, drain))
	}
	// The fence is only trustworthy while its deadline holds: routing
	// treats an expired entry as absent (the wedged-migration escape
	// hatch), so past the deadline acquires may already have resolved
	// to the source and been granted there without tripping the
	// post-grant check. A drain observation that squeaked in just
	// before expiry proves nothing about the present — an expired
	// fence always aborts.
	if !time.Now().Before(m.deadline) {
		return abort(fmt.Sprintf("fence expired before commit (drain budget %v)", drain))
	}
	// Re-probe the source under mu: a resolver that placed the key
	// pre-fence may have been granted after the drain loop's last
	// look. Holding mu from this probe through the override install
	// makes the two atomic against stillPlaced, so a grant landing
	// after the probe runs its post-grant check against the committed
	// override and releases itself.
	if n := r.sets[src].leasesOn(key); n != 0 {
		return abort(fmt.Sprintf("shard %d regained %d lease(s) on the key before commit", src, n))
	}
	if !r.ring.Has(dst) {
		return abort(fmt.Sprintf("shard %d left the ring mid-drain", dst))
	}
	if cur, _ := r.ring.Lookup(key); cur == dst {
		// A membership change mid-drain already moved the key's hash
		// placement to dst: commit as a no-op under a fresh epoch.
		r.ring.Bump()
	} else if err := r.ring.SetOverride(key, dst); err != nil {
		return abort(err.Error())
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
