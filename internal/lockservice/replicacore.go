//lint:deterministic

package lockservice

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/coord"
)

// Replication op codes carried in stream records. Grants and renews are
// the unsafe direction — losing one can resurrect a lock somewhere else
// — so they replicate semi-synchronously (see Publish). Releases,
// expirations and fences are the safe direction: a lost one merely
// leaves a lease on the standby until its TTL drains, which can delay
// but never violate exclusion. Heartbeats carry no mutation (see
// Heartbeat).
const (
	ReplOpGrant byte = iota + 1
	ReplOpRelease
	ReplOpRenew
	ReplOpExpire
	ReplOpFence
	ReplOpHeartbeat
)

// LeaseEvent is one lease-table mutation as seen by the replication
// tap. Resources is set only for grants; Deadline only for grants and
// renews.
type LeaseEvent struct {
	Op        byte
	ID        string
	Resources []string
	Deadline  time.Time
}

// ReplRecord is one stream record: a lease event stamped with the
// incarnation of the primary that issued it and the stream's sequence
// number. A heartbeat consumes no number: Seq echoes the last one issued
// and Deadline is the primary's latest lease deadline.
type ReplRecord struct {
	LeaseEvent
	Seq, Inc uint64
}

// degradedAfter is how many consecutive ack-budget misses demote a
// stream from semi-synchronous to fire-and-forget.
const degradedAfter = 3

// replLease is a standby's view of one replicated lease.
type replLease struct {
	resources []string
	deadline  time.Time
}

// replStream is one primary→standby stream. The primary's book: the
// last sequence issued, the standby's ack watermark, the records its
// bounded backlog dropped, and the run of missed ack budgets that
// demotes it. The standby's apply state: its coord.Stream tracker and
// the shadow lease table a promotion adopts. A stream outlives the
// promotions of other members.
type replStream struct {
	member   int
	seq      uint64
	acked    uint64
	dropped  int64
	misses   int
	degraded bool
	recv     coord.Stream
	shadow   map[string]replLease
	// shadowInc is the incarnation whose stream shadow mirrors.
	shadowInc uint64
}

// ReplicaCore is one shard's replica set with no clock and no goroutine
// in it: which member is primary under which incarnation, every
// stream's book and the standby's apply of it, the semi-synchronous ack
// rule, heartbeats, the promotion step and the post-grant fence. Methods
// take the time as now, so the Router's replica set runs the core on
// the wall clock and detsim on its virtual one; carrying records,
// waiting for acks and retry hints are the caller's.
type ReplicaCore struct {
	cores      []*ShardCore // the members' lease lifecycles
	ackBudget  time.Duration
	staleAfter time.Duration
	enqueue    func(member int, rec ReplRecord) bool

	inc atomic.Uint64 // bumped by every promotion

	mu        sync.Mutex    //lint:order rank lockservice 14
	primary   int           // guarded by mu
	streams   []*replStream // guarded by mu: the standbys, in choice order
	promoting bool          // guarded by mu
	holdUntil time.Time     // guarded by mu: TTL-drain window after a lossy failover
}

// NewReplicaCore builds a replica set over the members' cores: member 0
// is the primary under incarnation 1, every other member a standby with
// a fresh stream. enqueue hands a record to member's stream and reports
// whether its bounded backlog took it; it runs under the core's lock,
// so records enter each stream in sequence order, and must neither
// block nor call back into the core. A semi-synchronous record waits at
// most ackBudget for its acks; a promotion presumes records lost on a
// stream silent for longer than staleAfter.
func NewReplicaCore(cores []*ShardCore, ackBudget, staleAfter time.Duration, enqueue func(member int, rec ReplRecord) bool) *ReplicaCore {
	c := &ReplicaCore{cores: cores, ackBudget: ackBudget, staleAfter: staleAfter, enqueue: enqueue}
	c.inc.Store(1)
	for m := 1; m < len(cores); m++ {
		c.streams = append(c.streams, &replStream{member: m, shadow: make(map[string]replLease)})
	}
	return c
}

// Incarnation returns the primary's incarnation.
func (c *ReplicaCore) Incarnation() uint64 { return c.inc.Load() }

// Deposed is the fence check after a grant: whether a promotion overtook
// the incarnation inc the request was gated under. A deposed grant is
// surrendered where it was minted, so no client ever holds a lease only
// a deposed primary knows about.
func (c *ReplicaCore) Deposed(inc uint64) bool { return deposed(c, inc) }

// deposed is Deposed's rule. The mutation test swaps it for one that
// never fences.
var deposed = func(c *ReplicaCore, inc uint64) bool { return c.inc.Load() != inc }

// Primary returns the serving member.
func (c *ReplicaCore) Primary() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Standbys returns the standbys in choice order.
func (c *ReplicaCore) Standbys() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.streams))
	for i, st := range c.streams {
		out[i] = st.member
	}
	return out
}

// Gate is the serving state for one request at now: the primary and the
// incarnation its grant is fenced against, or, while the shard is
// leaderless, how long to wait — the rest of the hold-down, or retry
// while a promotion is in flight.
func (c *ReplicaCore) Gate(now time.Time, retry time.Duration) (primary int, inc uint64, wait time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.promoting {
		return 0, 0, retry
	}
	if d := c.holdUntil.Sub(now); d > 0 {
		return 0, 0, d
	}
	return c.primary, c.inc.Load(), 0
}

// Settled reports whether a promotion past incarnation before has
// completed (the hold-down may still gate requests).
func (c *ReplicaCore) Settled(before uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.Load() > before && !c.promoting
}

// HoldUntil returns the end of the TTL-drain hold-down (zero when none
// was ever opened).
func (c *ReplicaCore) HoldUntil() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.holdUntil
}

// MaxLag returns the widest stream lag: issued minus acked records.
// Enqueue drops count — they will never be acked, which is exactly the
// signal a promotion decision needs.
func (c *ReplicaCore) MaxLag() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lag uint64
	for _, st := range c.streams {
		lag = max(lag, st.lag())
	}
	return lag
}

func (st *replStream) lag() uint64 {
	if st.acked > st.seq {
		return 0
	}
	return st.seq - st.acked
}

// stream returns member's stream, nil once member left the standbys.
//
// requires mu
func (c *ReplicaCore) stream(member int) *replStream {
	for _, st := range c.streams {
		if st.member == member {
			return st
		}
	}
	return nil
}

// ReplWait is one semi-synchronous record's wait on its streams.
type ReplWait struct {
	// Until is when the ack budget lapses.
	Until time.Time
	waits []streamWait
}

type streamWait struct {
	st  *replStream
	seq uint64
}

// Publish streams member src's lease event to every standby at now.
// Only the primary's events replicate: a deposed member's go nowhere,
// and its own stream writes are refused by incarnation. A record the
// stream's backlog refuses is an enqueue drop, seen by the standby as a
// sequence gap. A grant or renew is semi-synchronous: it waits on every
// stream not demoted until that stream acks or the ack budget lapses,
// and the returned wait says on which; every other record returns nil.
func (c *ReplicaCore) Publish(src int, ev LeaseEvent, now time.Time) *ReplWait {
	c.mu.Lock()
	defer c.mu.Unlock()
	if src != c.primary || len(c.streams) == 0 {
		return nil
	}
	var w *ReplWait
	if ev.Op == ReplOpGrant || ev.Op == ReplOpRenew {
		w = &ReplWait{Until: now.Add(c.ackBudget)}
	}
	inc := c.inc.Load()
	for _, st := range c.streams {
		st.seq++
		if !c.enqueue(st.member, ReplRecord{LeaseEvent: ev, Seq: st.seq, Inc: inc}) {
			st.dropped++
		}
		if w != nil && !st.degraded {
			w.waits = append(w.waits, streamWait{st, st.seq})
		}
	}
	return w
}

// Ack raises member's ack watermark to seq.
func (c *ReplicaCore) Ack(member int, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stream(member); st != nil && seq > st.acked {
		st.acked = seq
	}
}

// Acked reports whether member acked seq.
func (c *ReplicaCore) Acked(member int, seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stream(member)
	return st != nil && st.acked >= seq
}

// Settle ends w if it is over at now — every stream it waits on acked,
// or the ack budget lapsed — and reports whether it was. An ack clears
// a stream's run of misses, and degradedAfter misses in a row demote
// it: it still receives the stream, but no record waits on it again (a
// dead standby must not tax every grant forever).
func (c *ReplicaCore) Settle(w *ReplWait, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sw := range w.waits {
		if sw.st.acked < sw.seq && now.Before(w.Until) {
			return false
		}
	}
	for _, sw := range w.waits {
		if sw.st.acked >= sw.seq {
			sw.st.misses = 0
		} else if sw.st.misses++; sw.st.misses >= degradedAfter {
			sw.st.degraded = true
		}
	}
	return true
}

// Heartbeat enqueues one liveness record on every stream: Seq echoes
// the last sequence issued (so a standby detects enqueue-dropped
// records) and Deadline is the primary's latest lease deadline (its
// TTL-drain bound should records turn out lost). None is sent while a
// promotion is in flight or when the primary is not healthy — silence
// is the failure detector's signal. Heartbeats are droppable and never
// acked.
func (c *ReplicaCore) Heartbeat(healthy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.promoting || len(c.streams) == 0 || !healthy {
		return
	}
	ev := LeaseEvent{Op: ReplOpHeartbeat, Deadline: c.cores[c.primary].maxLeaseDeadline()}
	inc := c.inc.Load()
	for _, st := range c.streams {
		c.enqueue(st.member, ReplRecord{LeaseEvent: ev, Seq: st.seq, Inc: inc})
	}
}

// Apply is member's standby applying one record of its stream, arrived
// at now, and reports whether to ack it. A record stamped with an
// incarnation other than the live one — a deposed primary still
// writing — is refused; a heartbeat moves the watermarks; every other
// record folds into the shadow table.
//
// The first record of a new incarnation empties the shadow table: it is
// rebuilt from the new primary's stream, whose adoptions re-grant every
// lease that primary holds. The old table cannot be kept: the deposed
// primary's last records — a release among them — may still have been
// queued when the incarnation bumped, and are refused, so it would
// carry leases nobody holds into a later promotion of this standby. A
// lease the new primary failed to adopt or never heard of is not lost
// with it: either makes that promotion's evidence a gap, and its
// hold-down outlives every lease the deposed primary granted.
func (c *ReplicaCore) Apply(member int, rec ReplRecord, now time.Time) (ack bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stream(member)
	if st == nil {
		return false
	}
	st.recv.Frame(now.UnixMicro())
	if !st.recv.Accepts(rec.Inc, c.inc.Load(), rec.Seq) {
		return false
	}
	if rec.Inc != st.shadowInc {
		clear(st.shadow)
		st.shadowInc = rec.Inc
	}
	if rec.Op == ReplOpHeartbeat {
		st.recv.Heartbeat(rec.Seq, rec.Deadline.UnixMicro())
		return false
	}
	st.recv.Record(rec.Seq)
	switch rec.Op {
	case ReplOpGrant:
		st.shadow[rec.ID] = replLease{resources: append([]string(nil), rec.Resources...), deadline: rec.Deadline}
	case ReplOpRenew:
		if l, ok := st.shadow[rec.ID]; ok {
			l.deadline = rec.Deadline
			st.shadow[rec.ID] = l
		}
	case ReplOpRelease, ReplOpExpire, ReplOpFence:
		delete(st.shadow, rec.ID)
	}
	return true
}

// Snapshot returns member's shadow table — the proven leases a
// promotion of it would adopt — as grant events sorted by ID; nil once
// member left the standbys.
func (c *ReplicaCore) Snapshot(member int) []LeaseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stream(member); st != nil {
		return st.snapshot()
	}
	return nil
}

// snapshot returns the shadow table as grant events sorted by ID.
func (st *replStream) snapshot() []LeaseEvent {
	out := make([]LeaseEvent, 0, len(st.shadow))
	for id, l := range st.shadow {
		out = append(out, LeaseEvent{Op: ReplOpGrant, ID: id, Resources: l.resources, Deadline: l.deadline})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Promotion is one failover in flight, from Promote to Complete.
type Promotion struct {
	Chosen int    // the promoted member
	Inc    uint64 // the incarnation it serves under
	Lag    uint64 // the chosen stream's unacked records at the decision
	// Adopted, Skipped and Failed count the proven leases re-granted,
	// already expired, and not re-granted by Complete.
	Adopted, Skipped, Failed int
	// Gap and HoldUntil are Complete's verdict: the stream showed loss,
	// and new grants wait until HoldUntil (zero when they need not).
	Gap       bool
	HoldUntil time.Time

	ev      coord.Evidence
	drainTo int64
	leases  []LeaseEvent // the chosen standby's proven leases, by ID
	done    []bool       // leases adopted or skipped
}

var (
	errPromoting     = errors.New("lockservice: promotion already in progress")
	errNoLiveStandby = errors.New("no live standby to promote")
)

// Promote starts a failover at now. coord.Choose picks the freshest
// standby live reports up (live runs under the core's lock and must not
// call back into it); the incarnation bumps first, so from this
// instant the deposed primary's records are refused and its in-flight
// grants fail Deposed; the chosen member becomes the primary — its
// events replicate, but Gate keeps the shard leaderless until Complete
// — and its stream is closed, its loss evidence and proven leases taken.
func (c *ReplicaCore) Promote(now time.Time, live func(member int) bool) (*Promotion, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.promoting {
		return nil, errPromoting
	}
	views := make([]coord.Standby, len(c.streams))
	for i, st := range c.streams {
		views[i] = coord.Standby{Live: live(st.member), Applied: st.recv.Applied()}
	}
	best := coord.Choose(views)
	if best == -1 {
		return nil, errNoLiveStandby
	}
	st := c.streams[best]
	c.streams = append(c.streams[:best], c.streams[best+1:]...)
	c.primary, c.promoting = st.member, true
	p := &Promotion{
		Chosen: st.member,
		Inc:    c.inc.Add(1),
		Lag:    st.lag(),
		ev: coord.Evidence{
			StreamGap: st.recv.Gap(),
			Lag:       st.lag(),
			Dropped:   st.dropped,
			Stale:     st.recv.Stale(now.UnixMicro(), c.staleAfter.Microseconds()),
		},
		drainTo: st.recv.DrainTo(),
		leases:  st.snapshot(),
	}
	p.done = make([]bool, len(p.leases))
	return p, nil
}

// Adopt offers adopt every proven lease of p not yet adopted or
// skipped: one coord.Adoptable no longer at now is skipped, and adopt
// reports whether it re-granted the lease, under its ID and deadline,
// on the chosen member. A caller that waits on each adoption calls Adopt
// once; one that polls calls it until Complete.
func (c *ReplicaCore) Adopt(p *Promotion, now time.Time, adopt func(LeaseEvent) bool) {
	for i, le := range p.leases {
		switch {
		case p.done[i]:
		case !coord.Adoptable(le.Deadline.UnixMicro(), now.UnixMicro()):
			p.done[i] = true
			p.Skipped++
		case adopt(le):
			p.done[i] = true
			p.Adopted++
		}
	}
}

// Complete ends p at now: every lease still unadopted is a failed
// adoption — its holder still believes in it, so it is as good as lost —
// coord's gap predicate judges the evidence, and coord.HoldUntil opens
// the hold-down over the chosen member's lease TTL. A chosen member that
// live reports down by now serves none of its adoptions and can re-grant
// nothing its stream never carried, so every unexpired proven lease, and
// one it may never have heard of, count as failed: the hold-down drains
// them before any successor grants.
func (c *ReplicaCore) Complete(p *Promotion, now time.Time, live func(member int) bool) {
	p.Failed = len(p.leases) - p.Adopted - p.Skipped
	if !live(p.Chosen) {
		p.Failed = len(p.leases) - p.Skipped + 1
	}
	p.ev.FailedAdoptions = p.Failed
	p.Gap = promotionGap(p.ev)
	c.mu.Lock()
	defer c.mu.Unlock()
	if until := coord.HoldUntil(p.Gap, now.UnixMicro(), c.cores[p.Chosen].ttl.Microseconds(), p.drainTo); until > 0 {
		p.HoldUntil = time.UnixMicro(until)
		c.holdUntil = p.HoldUntil
	}
	c.promoting = false
}

// promotionGap judges a promotion's loss evidence. The mutation test
// swaps it for a predicate that ignores replication lag.
var promotionGap = coord.Evidence.Gap
