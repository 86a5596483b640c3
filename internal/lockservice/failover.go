package lockservice

import (
	"fmt"
	"log"
	"time"

	"mcdp/internal/coord"
)

// FailoverConfig tunes shard-primary failure detection and standby
// promotion. The zero value gets the listed defaults when replicas are
// enabled.
type FailoverConfig struct {
	// CheckEvery is the supervisor's health-check cadence (default
	// 25ms). With Misses, it bounds detection latency: a killed primary
	// is noticed within CheckEvery*Misses.
	CheckEvery time.Duration
	// Misses is how many consecutive failed checks depose a primary
	// (default 3). One miss is too twitchy under scheduler jitter.
	Misses int
	// Cooloff is the per-shard hold-down after a promotion (default
	// 1s): a flapping shard gets at most one promotion per window, so
	// a crash loop cannot churn leadership faster than clients can
	// follow the ring generation.
	Cooloff time.Duration
	// AckTimeout bounds semi-synchronous grant replication (default
	// 250ms): a grant is withheld from the client until every live
	// standby acked or this budget lapsed.
	AckTimeout time.Duration
	// HeartbeatEvery is the replication heartbeat cadence (default
	// 50ms). Heartbeats carry the sequence watermark standbys use to
	// detect lost records.
	HeartbeatEvery time.Duration
	// StaleAfter is the stream silence beyond which a promotion assumes
	// records were lost and TTL-drains (default 500ms).
	StaleAfter time.Duration
	// Logf receives promotion decisions with reason and observed lag
	// (default log.Printf). Every promotion logs exactly once.
	Logf func(format string, args ...any)
}

// withDefaults fills unset knobs.
func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 25 * time.Millisecond
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	if c.Cooloff <= 0 {
		c.Cooloff = time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 250 * time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// superviseShards drives one coord.Detector per shard: every
// CheckEvery it heartbeats each shard's replication streams and feeds
// the detector a health probe; when the detector says so it promotes
// and bumps the ring generation. It runs only when the router was built
// with replicas.
func (r *Router) superviseShards() {
	defer r.wg.Done()
	t := time.NewTicker(r.fo.CheckEvery)
	defer t.Stop()
	detectors := make([]coord.Detector, len(r.sets))
	for i := range detectors {
		detectors[i] = coord.Detector{Misses: r.fo.Misses, Cooloff: int64(r.fo.Cooloff)}
	}
	lastHB := time.Time{}
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		if now := time.Now(); now.Sub(lastHB) >= r.fo.HeartbeatEvery {
			lastHB = now
			for _, set := range r.sets {
				set.core.Heartbeat(set.Primary().Healthy())
			}
		}
		for i, set := range r.sets {
			if !detectors[i].Check(set.Primary().Healthy(), r.now()) {
				continue
			}
			lag := set.core.MaxLag()
			res, took, err := set.promote()
			detectors[i].Promoted(r.now())
			if err != nil {
				r.fo.Logf("failover: shard %d promotion failed (reason=%d missed health checks, lag=%d records): %v",
					i, r.fo.Misses, lag, err)
				continue
			}
			r.core.Bump()
			r.metrics.Failovers.Add(1)
			r.metrics.observePromotion(took)
			r.fo.Logf("failover: shard %d promoted standby inc=%d reason=%d missed health checks lag=%d records adopted=%d skipped=%d failed=%d gap=%v hold=%s took=%s",
				i, res.Inc, r.fo.Misses, res.Lag, res.Adopted, res.Skipped, res.Failed, res.Gap,
				max(time.Until(res.HoldUntil), 0).Round(time.Millisecond), took.Round(time.Millisecond))
		}
	}
}

// Failover halts shard s's primary and returns once the supervisor has
// promoted a standby in its place (or the timeout lapses). It is the
// programmatic kill-primary switch used by the admin endpoint, the
// chaos harness, and the bench; the promotion itself still goes through
// the ordinary supervisor path, so what is measured is the real MTTR.
func (r *Router) Failover(s int, timeout time.Duration) error {
	if s < 0 || s >= len(r.sets) {
		return fmt.Errorf("lockservice: shard %d out of range [0,%d)", s, len(r.sets))
	}
	set := r.sets[s]
	if len(set.core.Standbys()) == 0 {
		return fmt.Errorf("lockservice: shard %d has no standby; refusing to kill the only primary", s)
	}
	before := set.core.Incarnation()
	set.Primary().Halt()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if set.core.Settled(before) && !set.Primary().Halted() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("lockservice: shard %d not promoted within %s", s, timeout)
}
