// Shard-replica failover simulation: coord's failover protocol — the
// lockservice replica set's detector, stream tracker, standby choice,
// gap predicate and hold-down — driven in rounds. One shard's primary
// and hot standbys advance under a schedule Source: the primary grants,
// renews, and releases single-key leases and streams every lease-table
// delta to each standby over a lossy bounded-backlog FIFO; the
// supervisor feeds coord.Detector a health probe a round, promotes the
// standby coord.Choose picks under a bumped incarnation, adopts the
// leases the standby can prove, and holds new grants down for as long as
// coord.HoldUntil says. The harness's own: the model of servers, lease
// tables and FIFO queues, the kill schedules that fail-stop the primary
// (cleanly or as a zombie that keeps serving stragglers), standbys, or
// the standby mid-promotion, the stall windows that model replication
// lag, and the oracles, which assert what the protocol owes clients:
// no grant from a deposed incarnation ever becomes client-visible
// (dual primary), no two client-visible leases on one key ever overlap
// (lost committed grant), and every unproven lease is either adopted
// or outlived by the hold-down (zombie lease).
package detsim

import (
	"fmt"
	"hash/fnv"
	"sort"

	"mcdp/internal/coord"
)

// Replica-stream record ops (round-domain twins of the lockservice
// ReplOp codes; span markers are owned by the span harness).
const (
	repGrant byte = iota + 1
	repRenew
	repRelease
	repExpire
	repHeartbeat
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
	// Keys is the single-key lease keyspace size (default 8).
	Keys int
	// GrantPercent / RenewPercent / ReleasePercent are the per-round
	// workload chances (defaults 60/20/30).
	GrantPercent, RenewPercent, ReleasePercent int
	// TTLRounds is every lease's time-to-live (default 30).
	TTLRounds int
	// AckRounds is the semi-synchronous ack budget: a grant becomes
	// client-visible once every stream acked it or this many rounds
	// passed (default 3).
	AckRounds int
	// HeartbeatEvery is the heartbeat cadence in rounds (default 2).
	HeartbeatEvery int
	// DetectMisses is how many consecutive failed health checks start a
	// promotion (default 3).
	DetectMisses int
	// PromoteRounds is how long a promotion takes — the window a
	// kill-during-promotion schedule aims at (default 2).
	PromoteRounds int
	// StaleRounds is the stream silence beyond which a promotion
	// presumes loss (default 10).
	StaleRounds int
	// Backlog bounds each stream's in-flight queue; overflow drops the
	// record, exactly like the production enqueue (default 16).
	Backlog int
	// LagMax is the most records a standby applies per round; each
	// round's count is drawn from [0, LagMax] (default 4).
	LagMax int
	// Kills and Stalls are the fault plans.
	Kills  []ReplicaKill
	Stalls []ReplicaStall
	// Unsafe disables the incarnation fence and every promotion gap
	// check — the negative control proving the oracles can fire.
	Unsafe bool
	// Trace retains the event trace in the result.
	Trace bool
	// Seed names the run; Source overrides the schedule source (nil
	// uses NewRand(Seed)).
	Seed   int64
	Source Source
}

// ReplicaResult is the outcome of one replica-failover run.
type ReplicaResult struct {
	Seed      int64
	Rounds    int
	Replicas  int
	TraceHash uint64
	Trace     []string
	// Workload counters.
	Grants, Renews, Releases, Expirations int
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

// repRecord is one stream record.
type repRecord struct {
	seq      uint64
	op       byte
	lease    int
	key      string
	deadline int
	inc      uint64
}

// repStream is one primary→standby replication stream: the primary
// side's sequence/ack/drop counters, the bounded in-flight queue, and
// the standby side's apply state. Streams survive promotions of other
// replicas, exactly like the production links.
type repStream struct {
	seq     uint64
	acked   uint64
	dropped int
	queue   []repRecord
	// recv is the standby side's tracker.
	recv coord.Stream
}

// shadowLease is one entry of a replica's lease table (authoritative
// on the primary, stream-applied shadow on standbys).
type shadowLease struct {
	key      string
	deadline int
}

// repReplica is one member server.
type repReplica struct {
	alive  bool
	zombie bool
	table  map[int]shadowLease
}

// ledgerLease is the client's view of one grant — the oracle substrate.
type ledgerLease struct {
	id       int
	key      string
	inc      uint64
	by       int // issuing replica
	granted  int
	deadline int
	// visibleAt is -1 while the grant waits on replication acks;
	// endedAt is -1 while the client still holds the lease.
	visibleAt, endedAt int
	fenced, lapsed     bool
	waitSeqs           map[int]uint64 // stream (standby index) -> record seq
}

// window returns the client-held interval [from, to) of a visible
// lease, clamping the end to release or expiry.
func (l *ledgerLease) window() (int, int) {
	to := l.deadline
	if l.endedAt >= 0 && l.endedAt < to {
		to = l.endedAt
	}
	return l.visibleAt, to
}

type replicaHarness struct {
	cfg ReplicaConfig
	src Source
	res *ReplicaResult
	h   *coordTrace

	reps    []*repReplica
	streams map[int]*repStream
	primary int
	inc     uint64

	// Supervisor state.
	detector    coord.Detector
	promoting   bool
	promoteEnd  int
	chosen      int
	holdUntil   int
	zombieUntil int // deposed zombie keeps serving stragglers until here
	zombieIdx   int

	leases   []*ledgerLease
	blackout int // current consecutive non-serving rounds
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
	if cfg.Keys <= 0 {
		cfg.Keys = 8
	}
	if cfg.GrantPercent <= 0 {
		cfg.GrantPercent = 60
	}
	if cfg.RenewPercent <= 0 {
		cfg.RenewPercent = 20
	}
	if cfg.ReleasePercent <= 0 {
		cfg.ReleasePercent = 30
	}
	if cfg.TTLRounds <= 0 {
		cfg.TTLRounds = 30
	}
	if cfg.AckRounds <= 0 {
		cfg.AckRounds = 3
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2
	}
	if cfg.DetectMisses <= 0 {
		cfg.DetectMisses = 3
	}
	if cfg.PromoteRounds <= 0 {
		cfg.PromoteRounds = 2
	}
	if cfg.StaleRounds <= 0 {
		cfg.StaleRounds = 10
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 16
	}
	if cfg.LagMax <= 0 {
		cfg.LagMax = 4
	}
	src := cfg.Source
	if src == nil {
		src = NewRand(cfg.Seed)
	}
	h := &replicaHarness{
		cfg:       cfg,
		src:       src,
		res:       &ReplicaResult{Seed: cfg.Seed, Rounds: cfg.Rounds, Replicas: cfg.Replicas},
		h:         &coordTrace{hash: fnv.New64a(), keep: cfg.Trace},
		streams:   make(map[int]*repStream),
		inc:       1,
		zombieIdx: -1,
		detector:  coord.Detector{Misses: cfg.DetectMisses, Cooloff: replicaCooloffRounds},
	}
	for i := 0; i < cfg.Replicas; i++ {
		h.reps = append(h.reps, &repReplica{alive: true, table: make(map[int]shadowLease)})
		if i != h.primary {
			h.streams[i] = &repStream{}
		}
	}
	h.h.event("replica run replicas=%d seed=%d", cfg.Replicas, cfg.Seed)
	return h
}

func (h *replicaHarness) key(i int) string { return fmt.Sprintf("key-%02d", i) }

func (h *replicaHarness) healthy(i int) bool {
	return h.reps[i].alive && !h.reps[i].zombie
}

// serving reports whether the shard accepts new grants this round.
func (h *replicaHarness) serving(t int) bool {
	return h.healthy(h.primary) && !h.promoting && t >= h.holdUntil
}

// standbyIndexes returns the live stream targets in index order (map
// iteration must never steer the schedule).
func (h *replicaHarness) standbyIndexes() []int {
	out := make([]int, 0, len(h.streams))
	for i := range h.streams {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// send fans one record out on every stream, honoring the backlog bound.
func (h *replicaHarness) send(op byte, lease int, key string, deadline int, waits map[int]uint64) {
	for _, i := range h.standbyIndexes() {
		st := h.streams[i]
		st.seq++
		if waits != nil {
			waits[i] = st.seq
		}
		if len(st.queue) >= h.cfg.Backlog {
			st.dropped++
			h.res.DroppedRecords++
			continue
		}
		st.queue = append(st.queue, repRecord{seq: st.seq, op: op, lease: lease, key: key, deadline: deadline, inc: h.inc})
	}
}

// heartbeat enqueues a liveness record on every stream: a seq echo (no
// new number) plus the primary's latest lease deadline.
func (h *replicaHarness) heartbeat(t int) {
	max := 0
	for _, sl := range h.reps[h.primary].table { //lint:sorted max over values is order-insensitive
		if sl.deadline > max {
			max = sl.deadline
		}
	}
	for _, i := range h.standbyIndexes() {
		st := h.streams[i]
		if len(st.queue) >= h.cfg.Backlog {
			continue // heartbeats are droppable and never acked
		}
		st.queue = append(st.queue, repRecord{seq: st.seq, op: repHeartbeat, deadline: max, inc: h.inc})
	}
}

func (h *replicaHarness) round(t int) {
	h.applyKills(t)
	h.workload(t)
	h.deliver(t)
	h.resolvePending(t)
	h.expire(t)
	h.supervise(t)
	if h.serving(t) {
		if h.blackout > h.res.MaxBlackout {
			h.res.MaxBlackout = h.blackout
		}
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
			target = h.primary
		} else if target == -2 {
			if !h.promoting {
				continue
			}
			target = h.chosen
		}
		if target < 0 || target >= len(h.reps) || !h.reps[target].alive {
			continue
		}
		if k.Zombie && target == h.primary {
			h.reps[target].zombie = true
			h.h.event("t%d zombie kill replica %d (primary)", t, target)
		} else {
			h.reps[target].alive = false
			h.reps[target].zombie = false
			h.h.event("t%d kill replica %d", t, target)
		}
	}
}

// workload draws the current primary's grants, renews, and releases —
// and the deposed zombie's straggler grants, which the incarnation
// fence must turn away.
func (h *replicaHarness) workload(t int) {
	if h.serving(t) {
		h.drawGrant(t, h.primary, h.inc)
		h.drawRenew(t)
		h.drawRelease(t)
		if t%h.cfg.HeartbeatEvery == 0 {
			h.heartbeat(t)
		}
	}
	if h.zombieIdx >= 0 && t < h.zombieUntil && h.reps[h.zombieIdx].alive {
		// The deposed zombie still serves clients that have not yet
		// re-resolved the ring. Its grants carry its stale incarnation
		// and no replication stream backs them.
		h.drawGrant(t, h.zombieIdx, h.inc-1)
	}
}

// drawGrant maybe issues one grant from replica by under incarnation
// inc: a free key is chosen, the lease enters by's table, and — when by
// is the live primary — the record fans out semi-synchronously.
func (h *replicaHarness) drawGrant(t, by int, inc uint64) {
	if h.src.Intn(100) >= h.cfg.GrantPercent {
		return
	}
	key := h.key(h.src.Intn(h.cfg.Keys))
	for _, sl := range h.reps[by].table {
		if sl.key == key && sl.deadline > t {
			return // key held on this replica's view
		}
	}
	id := len(h.leases)
	deadline := t + h.cfg.TTLRounds
	h.reps[by].table[id] = shadowLease{key: key, deadline: deadline}
	l := &ledgerLease{
		id: id, key: key, inc: inc, by: by,
		granted: t, deadline: deadline,
		visibleAt: -1, endedAt: -1,
	}
	if by == h.primary && inc == h.inc {
		l.waitSeqs = make(map[int]uint64)
		h.send(repGrant, id, key, deadline, l.waitSeqs)
	}
	h.leases = append(h.leases, l)
	h.h.event("t%d grant %d key=%s by=%d inc=%d", t, id, key, by, inc)
}

// heldIDs returns the primary-table lease IDs whose grants are client
// visible, sorted for deterministic draws.
func (h *replicaHarness) heldIDs(t int) []int {
	var ids []int
	for id, sl := range h.reps[h.primary].table {
		if sl.deadline <= t {
			continue
		}
		l := h.leases[id]
		if l.visibleAt >= 0 && l.endedAt < 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (h *replicaHarness) drawRenew(t int) {
	if h.src.Intn(100) >= h.cfg.RenewPercent {
		return
	}
	ids := h.heldIDs(t)
	if len(ids) == 0 {
		return
	}
	id := ids[h.src.Intn(len(ids))]
	deadline := t + h.cfg.TTLRounds
	sl := h.reps[h.primary].table[id]
	sl.deadline = deadline
	h.reps[h.primary].table[id] = sl
	h.leases[id].deadline = deadline
	h.send(repRenew, id, sl.key, deadline, nil)
	h.res.Renews++
	h.h.event("t%d renew %d", t, id)
}

func (h *replicaHarness) drawRelease(t int) {
	if h.src.Intn(100) >= h.cfg.ReleasePercent {
		return
	}
	ids := h.heldIDs(t)
	if len(ids) == 0 {
		return
	}
	id := ids[h.src.Intn(len(ids))]
	sl := h.reps[h.primary].table[id]
	delete(h.reps[h.primary].table, id)
	h.leases[id].endedAt = t
	h.send(repRelease, id, sl.key, 0, nil)
	h.res.Releases++
	h.h.event("t%d release %d", t, id)
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

// deliver applies up to Intn(LagMax+1) queued records on each live
// standby through its coord.Stream, like the production reader: records
// the tracker refuses (a deposed primary's) are never acked, heartbeats
// update the watermark without acking.
func (h *replicaHarness) deliver(t int) {
	for _, i := range h.standbyIndexes() {
		st := h.streams[i]
		if !h.reps[i].alive || h.stalled(i, t) {
			continue
		}
		n := h.src.Intn(h.cfg.LagMax + 1)
		for ; n > 0 && len(st.queue) > 0; n-- {
			rec := st.queue[0]
			st.queue = st.queue[1:]
			st.recv.Frame(int64(t))
			cur := h.inc
			if h.cfg.Unsafe {
				cur = rec.inc // no incarnation fence
			}
			if !st.recv.Accepts(rec.inc, cur, rec.seq) {
				continue
			}
			if rec.op == repHeartbeat {
				st.recv.Heartbeat(rec.seq, int64(rec.deadline))
				continue
			}
			st.recv.Record(rec.seq)
			h.applyShadow(i, rec)
			if rec.seq > st.acked {
				st.acked = rec.seq
			}
		}
	}
}

func (h *replicaHarness) applyShadow(i int, rec repRecord) {
	tbl := h.reps[i].table
	switch rec.op {
	case repGrant:
		tbl[rec.lease] = shadowLease{key: rec.key, deadline: rec.deadline}
	case repRenew:
		if sl, ok := tbl[rec.lease]; ok {
			sl.deadline = rec.deadline
			tbl[rec.lease] = sl
		}
	case repRelease, repExpire:
		delete(tbl, rec.lease)
	}
}

// resolvePending settles grants waiting on replication: fenced when
// their incarnation lost, lapsed when their primary died first, and
// client-visible once every stream acked or the ack budget lapsed. The
// moment of visibility runs the exclusion and dual-primary oracles.
func (h *replicaHarness) resolvePending(t int) {
	for _, l := range h.leases {
		if l.visibleAt >= 0 || l.fenced || l.lapsed {
			continue
		}
		if l.inc != h.inc && !h.cfg.Unsafe {
			// The replica set's fence: a promotion overtook this grant,
			// so it is surrendered where it was minted and the client
			// retries against the successor.
			l.fenced = true
			delete(h.reps[l.by].table, l.id)
			h.res.FencedGrants++
			h.h.event("t%d fence %d (inc %d != %d)", t, l.id, l.inc, h.inc)
			continue
		}
		if !h.reps[l.by].alive {
			l.lapsed = true
			h.res.LapsedGrants++
			h.h.event("t%d lapse %d (replica %d died)", t, l.id, l.by)
			continue
		}
		visible := t-l.granted >= h.cfg.AckRounds
		if !visible && l.waitSeqs != nil {
			visible = true
			for i, seq := range l.waitSeqs {
				if st, ok := h.streams[i]; ok && h.reps[i].alive && st.acked < seq {
					visible = false
					break
				}
			}
		}
		if !visible && l.waitSeqs == nil {
			visible = true // zombie grants skip replication entirely
		}
		if !visible {
			continue
		}
		l.visibleAt = t
		h.res.Grants++
		if l.inc != h.inc {
			record(&h.res.DualPrimaryViolations,
				"t%d: grant %d from deposed inc %d became visible under inc %d", t, l.id, l.inc, h.inc)
		}
		for _, other := range h.leases {
			if other == l || other.visibleAt < 0 || other.key != l.key {
				continue
			}
			if from, to := other.window(); from <= t && t < to {
				record(&h.res.ExclusionViolations,
					"t%d: leases %d and %d both hold %s", t, other.id, l.id, l.key)
			}
		}
	}
}

// expire retires leases past their deadline: the client stops believing
// in them, and the primary prunes its table, replicating the expiry.
// Standbys never self-expire — like the production shadow table they
// prune only on stream records or at adoption, because a local prune
// racing an in-flight renew would silently drop the lease (the renew
// record is a no-op on a missing entry).
func (h *replicaHarness) expire(t int) {
	for _, l := range h.leases {
		if l.visibleAt >= 0 && l.endedAt < 0 && l.deadline <= t {
			l.endedAt = t
			h.res.Expirations++
		}
	}
	tbl := h.reps[h.primary].table
	var dead []int
	for id, sl := range tbl {
		if sl.deadline <= t {
			dead = append(dead, id)
		}
	}
	sort.Ints(dead)
	for _, id := range dead {
		key := tbl[id].key
		delete(tbl, id)
		if h.serving(t) {
			h.send(repExpire, id, key, 0, nil)
		}
	}
}

// replicaCooloffRounds is the supervisor's cool-off after a promotion
// attempt, the round-domain twin of FailoverConfig.Cooloff.
const replicaCooloffRounds = 10

// promotionGap judges a promotion's loss evidence. The mutation test
// swaps it for a predicate that ignores replication lag.
var promotionGap = coord.Evidence.Gap

// supervise drives the failure detector and starts promotions.
func (h *replicaHarness) supervise(t int) {
	if h.promoting {
		if t >= h.promoteEnd {
			h.completePromotion(t)
		}
		return
	}
	if !h.detector.Check(h.healthy(h.primary), int64(t)) {
		return
	}
	idx := h.standbyIndexes()
	views := make([]coord.Standby, len(idx))
	for k, i := range idx {
		views[k] = coord.Standby{Live: h.reps[i].alive, Applied: h.streams[i].recv.Applied()}
	}
	best := coord.Choose(views)
	if best == -1 {
		h.detector.Promoted(int64(t))
		h.res.FailedPromotions++
		h.h.event("t%d promotion failed: no live standby", t)
		return
	}
	// The incarnation bumps the instant the decision is made: from here
	// the old primary's stream records and in-flight grants are fenced.
	if h.reps[h.primary].zombie {
		h.zombieIdx = h.primary
		h.zombieUntil = t + h.cfg.PromoteRounds + 2
	}
	h.inc++
	h.promoting = true
	h.chosen = idx[best]
	h.promoteEnd = t + h.cfg.PromoteRounds
	h.h.event("t%d promote %d starts inc=%d applied=%d", t, h.chosen, h.inc, views[best].Applied)
}

// completePromotion installs the chosen standby, adopts what it can
// prove, and opens a TTL-drain hold-down when coord's gap predicate
// says the stream showed loss.
func (h *replicaHarness) completePromotion(t int) {
	st := h.streams[h.chosen]
	ev := coord.Evidence{
		StreamGap: st.recv.Gap(),
		Lag:       st.seq - st.acked,
		Dropped:   int64(st.dropped),
		Stale:     st.recv.Stale(int64(t), int64(h.cfg.StaleRounds)),
	}
	delete(h.streams, h.chosen)
	h.primary = h.chosen
	h.promoting = false
	h.detector.Promoted(int64(t))
	h.res.Promotions++

	np := h.reps[h.primary]
	if !np.alive {
		// Killed mid-promotion: installed anyway (the supervisor notices
		// and promotes again), but nothing it knew — or never heard of —
		// can be re-granted.
		ev.FailedAdoptions = len(np.table) + 1
		h.res.FailedPromotions++
		h.h.event("t%d promotion of dead %d completes dark", t, h.chosen)
	} else {
		// Adopt proven unexpired leases; the adoption grants double as the
		// new primary's snapshot for the surviving streams.
		var ids []int
		for id := range np.table {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if sl := np.table[id]; coord.Adoptable(int64(sl.deadline), int64(t)) {
				h.res.Adopted++
				h.send(repGrant, id, sl.key, sl.deadline, nil)
			} else {
				delete(np.table, id)
				h.res.Skipped++
			}
		}
	}
	gap := promotionGap(ev) && !h.cfg.Unsafe
	if until := coord.HoldUntil(gap, int64(t), int64(h.cfg.TTLRounds), st.recv.DrainTo()); until > 0 {
		h.holdUntil = int(until)
		h.res.Holds++
	}
	h.h.event("t%d promote %d done inc=%d adopted=%d gap=%v hold=%d",
		t, h.primary, h.inc, h.res.Adopted, gap, h.holdUntil)

	// Zombie-lease oracle: every client-visible unexpired lease granted
	// under a deposed incarnation must be adopted (same ID) or outlived
	// by the hold-down before the shard grants again.
	for _, l := range h.leases {
		if l.visibleAt < 0 || l.endedAt >= 0 || l.deadline <= t || l.inc >= h.inc {
			continue
		}
		if _, adopted := np.table[l.id]; adopted && np.alive {
			continue
		}
		if h.holdUntil >= l.deadline {
			continue
		}
		record(&h.res.UndrainedViolations,
			"t%d: unproven lease %d (key %s, deadline t%d) neither adopted nor drained (hold=%d)",
			t, l.id, l.key, l.deadline, h.holdUntil)
	}
}

// finish runs the whole-run exclusion oracle (full pairwise pass, in
// case the incremental check at visibility missed a window) and seals
// the trace hash.
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
					"leases %d [%d,%d) and %d [%d,%d) overlap on %s", a.id, af, at, b.id, bf, bt, a.key)
			}
		}
	}
	if h.blackout > res.MaxBlackout {
		res.MaxBlackout = h.blackout
	}
	res.Trace = h.h.lines
	res.TraceHash = h.h.hash.Sum64()
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
	gap := window / count
	if gap < 1 {
		gap = 1
	}
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
