// Shard-replica failover simulation: the lockservice replica set's
// protocol driven in rounds. Each member server is a lockservice
// ShardCore over its own driven diners runner, and one
// lockservice.ReplicaCore — the Router's replica set without its wall
// clock — decides everything the protocol decides: which member serves
// under which incarnation, every stream's book and the standby's apply
// of it, the semi-synchronous ack rule and stream demotion, heartbeats,
// the promotion step (choice, incarnation bump, loss evidence, adoption,
// hold-down) and the post-grant fence. The harness's own: the client
// workload, the lossy bounded FIFO each stream rides on and its stall
// windows (replication lag), the supervisor's failure detector, the kill
// schedules that fail-stop the primary (cleanly or as a zombie that
// keeps serving stragglers), standbys, or the standby mid-promotion, and
// the oracles, which assert what the protocol owes clients: no grant
// from a deposed incarnation ever becomes client-visible (dual primary),
// no two client-visible leases on one key ever overlap (lost committed
// grant), and every unproven lease is either adopted or outlived by the
// hold-down (zombie lease).
package detsim

import (
	"fmt"
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// ReplicaKill schedules one fail-stop in a replica run.
type ReplicaKill struct {
	Round int
	// Target is -1 for the then-current primary, -2 for the standby a
	// promotion has chosen (a no-op when no promotion is in flight), or
	// a replica index.
	Target int
	// Zombie keeps the victim serving stragglers while it fails health
	// checks — the partitioned-primary flavor whose grants the
	// incarnation fence must reject.
	Zombie bool
}

// ReplicaStall pauses one replica's stream application over a round
// window — the replication-lag schedule.
type ReplicaStall struct {
	Replica, From, Until int
}

// ReplicaConfig describes one deterministic replica-failover run.
type ReplicaConfig struct {
	// Replicas is the total server count: one primary plus hot standbys
	// (default 3, min 2).
	Replicas int
	// Rounds is the run length (default 300).
	Rounds int
	// Kills and Stalls are the fault plans.
	Kills  []ReplicaKill
	Stalls []ReplicaStall
	// Trace retains the event trace in the result.
	Trace bool
	// Seed names the run; Source overrides the schedule source (nil
	// uses NewRand(Seed)).
	Seed   int64
	Source Source
}

// The replica run's workload and timings, in rounds.
const (
	replicaKeys           = 8  // single-key lease keyspace
	replicaGrantPercent   = 60 // per-round workload chances
	replicaRenewPercent   = 20
	replicaReleasePercent = 30
	replicaTTLRounds      = 30 // every lease's time-to-live
	replicaAckRounds      = 3  // the semi-synchronous ack budget
	replicaHeartbeatEvery = 2
	replicaDetectMisses   = 3 // failed health checks that start a promotion
	replicaPromoteRounds  = 2 // the window a kill-during-promotion aims at
	replicaStaleRounds    = 10
	replicaBacklog        = 16 // each stream's in-flight bound; overflow drops
	replicaLagMax         = 4  // most records a standby applies per round
	replicaCooloffRounds  = 10 // the round-domain FailoverConfig.Cooloff
)

// replicaGraph is every member's diners substrate, as in the
// lockservice failover tests.
var replicaGraph = graph.Grid(2, 3)

// ReplicaResult is the outcome of one replica-failover run.
type ReplicaResult struct {
	Seed      int64
	Rounds    int
	Replicas  int
	TraceHash uint64
	Trace     []string
	// Grants counts leases that became client-visible.
	Grants int
	// FencedGrants counts grants surrendered to the incarnation fence —
	// the split-brain attempts the protocol turned away.
	FencedGrants int
	// LapsedGrants counts grants whose primary died before they became
	// client-visible (the client saw an error, not a lease).
	LapsedGrants int
	// DroppedRecords counts stream records lost to backlog overflow.
	DroppedRecords int
	// Promotions/FailedPromotions count completed and dead-on-arrival
	// promotions; Adopted/Skipped count proven leases re-granted and
	// already-expired at adoption; Holds counts TTL-drain hold-downs.
	Promotions, FailedPromotions, Adopted, Skipped, Holds int
	// BlackoutRounds counts rounds the shard refused new grants;
	// MaxBlackout is the longest single refusal window — the model MTTR.
	BlackoutRounds, MaxBlackout int
	// DualPrimaryViolations lists grants from a deposed incarnation
	// that became client-visible.
	DualPrimaryViolations []string
	// ExclusionViolations lists pairs of client-visible leases on one
	// key whose hold windows overlapped (a lost committed grant or a
	// zombie lease resurrected elsewhere).
	ExclusionViolations []string
	// UndrainedViolations lists unproven leases a promotion neither
	// adopted nor outwaited.
	UndrainedViolations []string
}

// Failed reports whether the run violated any checked property.
func (r *ReplicaResult) Failed() bool {
	return len(r.DualPrimaryViolations) > 0 || len(r.ExclusionViolations) > 0 ||
		len(r.UndrainedViolations) > 0
}

// replica is one member server: a ShardCore over its own runner, which
// steps only while the member serves, and its inbound stream's lossy
// FIFO.
type replica struct {
	rn     *runner
	alive  bool
	zombie bool
	queue  []lockservice.ReplRecord
}

// request is one client acquire: gated under incarnation inc, queued at
// replica by.
type request struct {
	*client
	inc uint64
	by  int
}

// adoption is one proven lease's session on the promoted member.
type adoption struct {
	*client
	lease string
}

// ledgerLease is the client's view of one grant — the oracle substrate.
type ledgerLease struct {
	id       string
	key      string
	inc      uint64 // the incarnation the request was gated under
	by       int    // issuing replica
	granted  int
	deadline time.Time
	// visibleAt is -1 while the grant waits on replication acks;
	// endedAt is -1 while the client still holds the lease.
	visibleAt, endedAt int
	fenced, lapsed     bool
	wait               *lockservice.ReplWait
}

// window returns the client-held round interval [from, to) of a visible
// lease, clamping the end to release or expiry.
func (l *ledgerLease) window() (int, int) {
	to := roundOf(l.deadline)
	if l.endedAt >= 0 && l.endedAt < to {
		to = l.endedAt
	}
	return l.visibleAt, to
}

// roundOf is the round in which instant at falls due: the first whose
// end is not before it.
func roundOf(at time.Time) int {
	return int((at.Sub(roundEnd(-1))+roundTime-1)/roundTime) - 1
}

type replicaHarness struct {
	cfg ReplicaConfig
	src Source
	res *ReplicaResult
	h   *trace

	reps     []*replica
	rc       *lockservice.ReplicaCore
	detector coord.Detector

	promo       *lockservice.Promotion // in flight
	promoteEnd  int
	adopting    []adoption // the promotion's adoption sessions
	zombieUntil int        // deposed zombie keeps serving stragglers until here
	zombieIdx   int

	requests []*request
	leases   []*ledgerLease
	waits    []*lockservice.ReplWait // renews' and lapsed grants' waits
	blackout int                     // current consecutive non-serving rounds
}

// RunReplica executes one deterministic replica-failover run.
func RunReplica(cfg ReplicaConfig) *ReplicaResult {
	h := newReplicaHarness(cfg)
	for t := 0; t < h.cfg.Rounds; t++ {
		h.round(t)
	}
	return h.finish()
}

func newReplicaHarness(cfg ReplicaConfig) *replicaHarness {
	if cfg.Replicas < 2 {
		cfg.Replicas = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 300
	}
	src := cfg.Source
	if src == nil {
		src = NewRand(cfg.Seed)
	}
	h := &replicaHarness{
		cfg:       cfg,
		src:       src,
		res:       &ReplicaResult{Seed: cfg.Seed, Rounds: cfg.Rounds, Replicas: cfg.Replicas},
		h:         newTrace(cfg.Trace),
		zombieIdx: -1,
		detector:  coord.Detector{Misses: replicaDetectMisses, Cooloff: replicaCooloffRounds},
	}
	cores := make([]*lockservice.ShardCore, cfg.Replicas)
	for m := range cores {
		rn := newRunner(Config{
			Graph:  replicaGraph,
			Seed:   cfg.Seed + int64(m)*101,
			Rounds: cfg.Rounds,
			Hungry: make([]bool, replicaGraph.N()), // demand arrives with sessions
			Source: src,
		})
		rn.tr = nil // the run's trace is the harness's own (h.h)
		rn.boot()
		cores[m] = rn.attach(0, 8, nil)
		rn.tap = func(ev lockservice.LeaseEvent) { h.rc.Publish(m, ev, rn.vnow) }
		h.reps = append(h.reps, &replica{rn: rn, alive: true})
	}
	h.rc = lockservice.NewReplicaCore(cores, replicaAckRounds*roundTime, replicaStaleRounds*roundTime, h.enqueue)
	h.h.event("replica run replicas=%d seed=%d", cfg.Replicas, cfg.Seed)
	return h
}

// enqueue is the lossy bounded FIFO every stream rides on: overflow
// drops the record, exactly like the production enqueue.
func (h *replicaHarness) enqueue(m int, rec lockservice.ReplRecord) bool {
	r := h.reps[m]
	if len(r.queue) >= replicaBacklog {
		if rec.Op != lockservice.ReplOpHeartbeat {
			h.res.DroppedRecords++
		}
		return false
	}
	r.queue = append(r.queue, rec)
	return true
}

func (h *replicaHarness) alive(m int) bool { return h.reps[m].alive }

func (h *replicaHarness) healthy(m int) bool {
	return h.reps[m].alive && !h.reps[m].zombie
}

// serving reports whether the shard accepts new grants at now.
func (h *replicaHarness) serving(now time.Time) bool {
	p, _, wait := h.rc.Gate(now, roundTime)
	return wait == 0 && h.healthy(p)
}

// zombie returns the deposed zombie still serving stragglers in round t,
// -1 when there is none.
func (h *replicaHarness) zombie(t int) int {
	if h.zombieIdx >= 0 && t < h.zombieUntil && h.reps[h.zombieIdx].alive {
		return h.zombieIdx
	}
	return -1
}

func (h *replicaHarness) round(t int) {
	now := roundEnd(t)
	h.applyKills(t)
	h.step(t)
	h.workload(t, now)
	h.deliver(t, now)
	h.resolve(t, now)
	h.supervise(t, now)
	if t%replicaHeartbeatEvery == 0 {
		h.rc.Heartbeat(h.healthy(h.rc.Primary()))
	}
	if h.serving(now) {
		h.res.MaxBlackout = max(h.res.MaxBlackout, h.blackout)
		h.blackout = 0
	} else {
		h.blackout++
		h.res.BlackoutRounds++
	}
}

func (h *replicaHarness) applyKills(t int) {
	for _, k := range h.cfg.Kills {
		if k.Round != t {
			continue
		}
		target := k.Target
		if target == -1 {
			target = h.rc.Primary()
		} else if target == -2 {
			if h.promo == nil {
				continue
			}
			target = h.promo.Chosen
		}
		if target < 0 || target >= len(h.reps) || !h.reps[target].alive {
			continue
		}
		if k.Zombie && target == h.rc.Primary() {
			h.reps[target].zombie = true
			h.h.event("t%d zombie kill replica %d (primary)", t, target)
		} else {
			h.reps[target].alive = false
			h.reps[target].zombie = false
			h.h.event("t%d kill replica %d", t, target)
		}
	}
}

// step runs round t on the substrate of every member that serves: the
// primary and a deposed zombie. The janitor's expiries are published
// through the runner's tap; then the core pumps, and each queued request
// whose session was granted takes its lease, published semi-synchronously.
func (h *replicaHarness) step(t int) {
	for m, r := range h.reps {
		if !r.alive || (m != h.rc.Primary() && m != h.zombie(t)) {
			continue
		}
		if start := roundEnd(t - 1); r.rn.vnow.Before(start) {
			r.rn.vnow = start // it sat out rounds as a standby
		}
		r.rn.fairRound(t)
		r.rn.core.Pump()
	}
	kept := h.requests[:0]
	for _, rq := range h.requests {
		if rq.done || !h.reps[rq.by].alive {
			continue
		}
		if !rq.granted() {
			kept = append(kept, rq)
			continue
		}
		ev := rq.lease(replicaTTLRounds * roundTime)
		rq.done = true
		h.leases = append(h.leases, &ledgerLease{
			id: ev.ID, key: rq.keys[0], inc: rq.inc, by: rq.by,
			granted: t, deadline: ev.Deadline,
			visibleAt: -1, endedAt: -1,
			wait: h.rc.Publish(rq.by, ev, rq.rn.vnow),
		})
		h.h.event("t%d grant %s key=%s by=%d inc=%d", t, ev.ID, rq.keys[0], rq.by, rq.inc)
	}
	h.requests = kept
}

// workload draws the serving primary's acquires, renews and releases,
// and the deposed zombie's straggler acquires, gated under the
// incarnation its clients have not yet seen replaced.
func (h *replicaHarness) workload(t int, now time.Time) {
	if p := h.rc.Primary(); h.serving(now) {
		h.acquire(t, p, h.rc.Incarnation())
		if h.src.Intn(100) < replicaRenewPercent {
			if l := h.drawHeld(p); l != nil {
				ev, _, _ := h.reps[p].rn.core.Renew(l.id, replicaTTLRounds*roundTime, now)
				l.deadline = ev.Deadline
				if w := h.rc.Publish(p, ev, now); w != nil {
					h.waits = append(h.waits, w)
				}
				h.h.event("t%d renew %s", t, l.id)
			}
		}
		if h.src.Intn(100) < replicaReleasePercent {
			if l := h.drawHeld(p); l != nil {
				ev, _, _ := h.reps[p].rn.core.Release(l.id, now)
				h.rc.Publish(p, ev, now)
				l.endedAt = t
				h.h.event("t%d release %s", t, l.id)
			}
		}
	}
	if z := h.zombie(t); z >= 0 {
		h.acquire(t, z, h.rc.Incarnation()-1)
	}
}

// acquire maybe queues one client request for a drawn key at replica by.
func (h *replicaHarness) acquire(t, by int, inc uint64) {
	if h.src.Intn(100) >= replicaGrantPercent {
		return
	}
	key := fmt.Sprintf("key-%02d", h.src.Intn(replicaKeys))
	if cl := h.reps[by].rn.submit([]string{key}, 0, t); cl != nil {
		h.requests = append(h.requests, &request{client: cl, inc: inc, by: by})
	}
}

// drawHeld draws one client-visible lease the clients still hold and
// primary p's core still backs, nil when there is none.
func (h *replicaHarness) drawHeld(p int) *ledgerLease {
	var held []*ledgerLease
	for _, l := range h.leases {
		if l.visibleAt < 0 || l.endedAt >= 0 {
			continue
		}
		if _, ok := h.reps[p].rn.core.Deadline(l.id); ok {
			held = append(held, l)
		}
	}
	if len(held) == 0 {
		return nil
	}
	return held[h.src.Intn(len(held))]
}

// stalled reports whether replica i's stream application is paused at t.
func (h *replicaHarness) stalled(i, t int) bool {
	for _, s := range h.cfg.Stalls {
		if s.Replica == i && s.From <= t && t < s.Until {
			return true
		}
	}
	return false
}

// deliver has each live standby apply up to Intn(LagMax+1) queued
// records through the core and ack what it applied, like the
// production stream reader.
func (h *replicaHarness) deliver(t int, now time.Time) {
	for _, m := range h.rc.Standbys() {
		r := h.reps[m]
		if !r.alive || h.stalled(m, t) {
			continue
		}
		for n := h.src.Intn(replicaLagMax + 1); n > 0 && len(r.queue) > 0; n-- {
			rec := r.queue[0]
			r.queue = r.queue[1:]
			if h.rc.Apply(m, rec, now) {
				h.rc.Ack(m, rec.Seq)
			}
		}
	}
}

// resolve settles the replication waits that are over and the grants
// they held back: lapsed when their primary died first, fenced when a
// promotion overtook their incarnation, else client-visible — which runs
// the dual-primary oracle. Then client-held leases past their deadline
// end.
func (h *replicaHarness) resolve(t int, now time.Time) {
	waits := h.waits[:0]
	for _, w := range h.waits {
		if !h.rc.Settle(w, now) {
			waits = append(waits, w)
		}
	}
	h.waits = waits
	for _, l := range h.leases {
		if l.visibleAt >= 0 || l.fenced || l.lapsed {
			continue
		}
		if !h.reps[l.by].alive {
			l.lapsed = true
			if l.wait != nil {
				h.waits = append(h.waits, l.wait)
			}
			h.res.LapsedGrants++
			h.h.event("t%d lapse %s (replica %d died)", t, l.id, l.by)
			continue
		}
		if l.wait != nil && !h.rc.Settle(l.wait, now) {
			continue
		}
		if h.rc.Deposed(l.inc) {
			// The replica set's fence: the grant is surrendered where it
			// was minted, and the client retries against the successor.
			if ev, _, err := h.reps[l.by].rn.core.Release(l.id, now); err == nil {
				h.rc.Publish(l.by, ev, now)
			}
			l.fenced = true
			h.res.FencedGrants++
			h.h.event("t%d fence %s (inc %d != %d)", t, l.id, l.inc, h.rc.Incarnation())
			continue
		}
		l.visibleAt = t
		h.res.Grants++
		if l.inc != h.rc.Incarnation() {
			record(&h.res.DualPrimaryViolations,
				"t%d: grant %s from deposed inc %d became visible under inc %d", t, l.id, l.inc, h.rc.Incarnation())
		}
	}
	for _, l := range h.leases {
		if l.visibleAt >= 0 && l.endedAt < 0 && !now.Before(l.deadline) {
			l.endedAt = t
		}
	}
}

// supervise drives the failure detector and the promotion step: the
// core chooses, bumps and takes the evidence at the decision, the
// chosen member adopts across the promotion window, and the core judges
// the gap and opens the hold-down when the window closes.
func (h *replicaHarness) supervise(t int, now time.Time) {
	if h.promo != nil {
		h.rc.Adopt(h.promo, now, h.adopter(t, now))
		if t >= h.promoteEnd {
			h.completePromotion(t, now)
		}
		return
	}
	old := h.rc.Primary()
	if !h.detector.Check(h.healthy(old), int64(t)) {
		return
	}
	p, err := h.rc.Promote(now, h.alive)
	if err != nil {
		h.detector.Promoted(int64(t))
		h.res.FailedPromotions++
		h.h.event("t%d promotion failed: no live standby", t)
		return
	}
	if h.reps[old].zombie {
		h.zombieIdx = old
		h.zombieUntil = t + replicaPromoteRounds + 2
	}
	h.reps[p.Chosen].queue = nil // its stream is closed: it IS the primary
	h.promo, h.promoteEnd = p, t+replicaPromoteRounds
	h.h.event("t%d promote %d starts inc=%d lag=%d", t, p.Chosen, p.Inc, p.Lag)
	h.rc.Adopt(p, now, h.adopter(t, now))
}

// adopter is the chosen member's adoption of one proven lease, as
// Server.AdoptLease: its session is queued and served once, then polled
// until granted, when the lease is re-minted under its ID and deadline
// and published. A session still ungranted when the window closes is a
// failed adoption — AdoptLease's await timing out.
func (h *replicaHarness) adopter(t int, now time.Time) func(lockservice.LeaseEvent) bool {
	m := h.promo.Chosen
	r := h.reps[m]
	return func(le lockservice.LeaseEvent) bool {
		if !r.alive {
			return false
		}
		var cl *client
		for _, a := range h.adopting {
			if a.lease == le.ID {
				cl = a.client
			}
		}
		if cl == nil {
			if cl = r.rn.submit(le.Resources, 0, t); cl == nil {
				return false
			}
			h.adopting = append(h.adopting, adoption{cl, le.ID})
		}
		if !cl.granted() {
			return false
		}
		ev := r.rn.core.Adopt(cl.sess, le.ID, le.Resources, le.Deadline, now)
		cl.id, cl.done = le.ID, true
		if w := h.rc.Publish(m, ev, now); w != nil {
			h.waits = append(h.waits, w)
		}
		return true
	}
}

// completePromotion closes the promotion window, withdraws the
// adoptions that never got their grant, and runs the zombie-lease
// oracle: every client-visible unexpired lease granted under a deposed
// incarnation must be adopted (same ID) by a live successor or outlived
// by the hold-down before the shard grants again.
func (h *replicaHarness) completePromotion(t int, now time.Time) {
	p := h.promo
	h.rc.Complete(p, now, h.alive)
	np := h.reps[p.Chosen]
	for _, a := range h.adopting {
		if !a.done {
			a.end()
		}
	}
	h.promo, h.adopting = nil, nil
	h.detector.Promoted(int64(t))
	h.res.Promotions++
	h.res.Adopted += p.Adopted
	h.res.Skipped += p.Skipped
	if !np.alive {
		// Killed mid-promotion: installed anyway (the supervisor notices
		// and promotes again).
		h.res.FailedPromotions++
		h.h.event("t%d promotion of dead %d completes dark", t, p.Chosen)
	}
	if !p.HoldUntil.IsZero() {
		h.res.Holds++
	}
	// An earlier promotion's hold-down may still stand.
	until, hold := h.rc.HoldUntil(), -1
	if !until.IsZero() {
		hold = roundOf(until)
	}
	h.h.event("t%d promote %d done inc=%d adopted=%d gap=%v hold=%d", t, p.Chosen, p.Inc, p.Adopted, p.Gap, hold)
	for _, l := range h.leases {
		if l.visibleAt < 0 || l.endedAt >= 0 || !now.Before(l.deadline) || l.inc >= p.Inc {
			continue
		}
		if _, adopted := np.rn.core.Deadline(l.id); (adopted && np.alive) || !until.Before(l.deadline) {
			continue
		}
		record(&h.res.UndrainedViolations,
			"t%d: unproven lease %s (key %s) neither adopted nor drained (hold=%d)", t, l.id, l.key, hold)
	}
}

// finish runs the exclusion oracle — no two client-visible leases on
// one key overlap — and seals the trace hash.
func (h *replicaHarness) finish() *ReplicaResult {
	res := h.res
	for i, a := range h.leases {
		if a.visibleAt < 0 {
			continue
		}
		af, at := a.window()
		for _, b := range h.leases[i+1:] {
			if b.visibleAt < 0 || b.key != a.key {
				continue
			}
			bf, bt := b.window()
			if af < bt && bf < at {
				record(&res.ExclusionViolations,
					"leases %s [%d,%d) and %s [%d,%d) overlap on %s", a.id, af, at, b.id, bf, bt, a.key)
			}
		}
	}
	res.MaxBlackout = max(res.MaxBlackout, h.blackout)
	res.Trace = h.h.lines
	res.TraceHash = h.h.sum()
	return res
}

// RandomReplicaKills draws count primary kills spread over the first
// window rounds, each a zombie with probability 1/3, spaced so each
// failover can complete before the next lands.
func RandomReplicaKills(src Source, count, window int) []ReplicaKill {
	var kills []ReplicaKill
	if count <= 0 {
		return kills
	}
	gap := max(window/count, 1)
	for i := 0; i < count; i++ {
		kills = append(kills, ReplicaKill{
			Round:  i*gap + src.Intn(gap),
			Target: -1,
			Zombie: src.Intn(3) == 0,
		})
	}
	return kills
}

// SweepReplica is the canonical seed-indexed kill-primary run shared by
// the sweep tests and cmd/detsim -mode replica: the seed draws primary
// kills (some zombie) over the first two thirds of the run.
func SweepReplica(seed int64, rounds, replicas, kills int, trace bool) *ReplicaResult {
	src := NewRand(seed)
	plan := RandomReplicaKills(src, kills, rounds*2/3)
	return RunReplica(ReplicaConfig{
		Replicas: replicas,
		Rounds:   rounds,
		Seed:     seed,
		Kills:    plan,
		Source:   src,
		Trace:    trace,
	})
}

// SweepReplicaAdversarial is the hostile variant: primary kills plus
// standby kills, kill-during-promotion strikes, and stall windows that
// starve replication — the schedule aims at every gap-detection path.
func SweepReplicaAdversarial(seed int64, rounds, replicas, kills int, trace bool) *ReplicaResult {
	src := NewRand(seed)
	window := rounds * 2 / 3
	plan := RandomReplicaKills(src, kills, window)
	for i := 0; i < kills; i++ {
		switch src.Intn(3) {
		case 0: // fail-stop a standby outright
			plan = append(plan, ReplicaKill{Round: src.Intn(window), Target: 1 + src.Intn(replicas-1)})
		case 1: // strike the standby a promotion just chose
			plan = append(plan, ReplicaKill{Round: src.Intn(window), Target: -2})
		}
	}
	var stalls []ReplicaStall
	for i := 0; i < kills; i++ {
		at := src.Intn(window)
		stalls = append(stalls, ReplicaStall{
			Replica: 1 + src.Intn(replicas-1),
			From:    at,
			Until:   at + 5 + src.Intn(20),
		})
	}
	return RunReplica(ReplicaConfig{
		Replicas: replicas,
		Rounds:   rounds,
		Seed:     seed,
		Kills:    plan,
		Stalls:   stalls,
		Source:   src,
		Trace:    trace,
	})
}

// SweepReplicaKillDuringPromotion aims every strike at the promotion
// window itself: each primary kill is followed by a kill of whichever
// standby the resulting promotion chooses, forcing the
// dark-completion/re-promotion path.
func SweepReplicaKillDuringPromotion(seed int64, rounds, replicas, kills int, trace bool) *ReplicaResult {
	src := NewRand(seed)
	window := rounds * 2 / 3
	plan := RandomReplicaKills(src, kills, window)
	base := len(plan)
	for i := 0; i < base; i++ {
		// Detection takes DetectMisses rounds; the promotion window opens
		// right after. One round into it, kill the chosen standby.
		plan = append(plan, ReplicaKill{Round: plan[i].Round + 4, Target: -2})
	}
	return RunReplica(ReplicaConfig{
		Replicas: replicas,
		Rounds:   rounds,
		Seed:     seed,
		Kills:    plan,
		Source:   src,
		Trace:    trace,
	})
}
