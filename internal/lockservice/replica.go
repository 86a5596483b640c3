package lockservice

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/coord"
)

// RetryAfterError wraps a retryable rejection with an explicit backoff
// hint; the HTTP layer ships it as a Retry-After header. The lock
// service uses it for leaderless shards: the remaining blackout is
// known server-side (promotion in flight, or a TTL-drain hold-down with
// a computed end), so clients should wait that long instead of probing.
type RetryAfterError struct {
	After time.Duration
	Err   error
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// errPromoting marks a promotion already in flight (internal).
var errPromoting = errors.New("lockservice: promotion already in progress")

// standbyLink bundles one standby with its replication plumbing: the
// primary-side replicator and the in-memory duplex pipe the stream
// rides on. The link survives promotions of OTHER replicas — a new
// primary restamps the replicator and keeps writing — and is torn down
// only when its own standby is promoted or the set stops.
type standbyLink struct {
	srv   *Server
	recv  *standby
	repl  *replicator
	connP net.Conn // primary-side end
	connS net.Conn // standby-side end
}

// close ends the link's stream and joins both of its ends.
func (l *standbyLink) close() {
	l.repl.close()
	l.connP.Close()
	l.connS.Close()
	l.recv.join()
}

// promotion reports one completed failover for logs, metrics, and the
// bench harness.
type promotion struct {
	Shard   int
	Inc     uint64        // new incarnation
	Took    time.Duration // decision to serving (the MTTR numerator)
	Adopted int           // proven leases re-granted on the new primary
	Skipped int           // proven leases already expired at promotion
	Failed  int           // adoptions that did not complete (forces hold)
	Gap     bool          // the stream showed loss; unproven leases may exist
	Hold    time.Duration // TTL-drain hold-down applied (0 when none)
	Lag     uint64        // chosen standby's applied-sequence lag at decision
}

// replicaSet is one shard's primary plus its hot standbys. All lease
// traffic flows through it: it gates requests during blackouts
// (ErrLeaderless + Retry-After), fences grants that raced a promotion
// (ErrDeposed), and carries out supervisor-ordered promotions.
type replicaSet struct {
	shard      int
	ackTimeout time.Duration
	staleAfter time.Duration
	checkEvery time.Duration // retry hint while leaderless with no known end

	inc atomic.Uint64 // primary incarnation; bumped by every promotion

	mu        sync.Mutex     //lint:order rank lockservice 14
	primary   *Server        // guarded by mu
	standbys  []*standbyLink // guarded by mu
	deposed   []*Server      // guarded by mu: former primaries, fenced out
	holdUntil time.Time      // guarded by mu: TTL-drain window after a lossy failover
	promoting bool           // guarded by mu
}

// newReplicaSet wires primary and standbys into one failover unit:
// every server gets the replication tap (only the current primary's
// events replicate), and each standby gets a live stream. ackTimeout
// bounds semi-synchronous grant replication; staleAfter is the stream
// silence beyond which a promotion assumes loss; checkEvery is the
// Retry-After hint during promotions.
func newReplicaSet(shardID int, primary *Server, standbys []*Server, ackTimeout, staleAfter, checkEvery time.Duration) *replicaSet {
	rs := &replicaSet{
		shard:      shardID,
		ackTimeout: ackTimeout,
		staleAfter: staleAfter,
		checkEvery: checkEvery,
		primary:    primary,
	}
	rs.inc.Store(1)
	tapFor := func(srv *Server) func(LeaseEvent) {
		return func(ev LeaseEvent) { rs.onLeaseEvent(srv, ev) }
	}
	primary.SetLeaseTap(tapFor(primary))
	for _, sb := range standbys {
		sb.SetLeaseTap(tapFor(sb))
		connP, connS := net.Pipe()
		link := &standbyLink{
			srv:   sb,
			recv:  newStandby(sb, rs.inc.Load),
			repl:  newReplicator(connP, 1),
			connP: connP,
			connS: connS,
		}
		link.recv.serve(connS)
		rs.standbys = append(rs.standbys, link)
	}
	return rs
}

// servers returns every server the set has ever owned (primary,
// standbys, deposed) — the teardown and ring-generation fan-out list.
func (rs *replicaSet) servers() []*Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := []*Server{rs.primary}
	for _, l := range rs.standbys {
		out = append(out, l.srv)
	}
	out = append(out, rs.deposed...)
	return out
}

// Primary returns the currently serving server.
func (rs *replicaSet) Primary() *Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

// incarnation returns the current primary incarnation.
func (rs *replicaSet) incarnation() uint64 { return rs.inc.Load() }

// links snapshots the live standby links.
func (rs *replicaSet) links() []*standbyLink {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*standbyLink(nil), rs.standbys...)
}

// standbyCount returns the number of live (unpromoted) standbys.
func (rs *replicaSet) standbyCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.standbys)
}

// maxLag returns the widest replication lag across standbys, in
// records.
func (rs *replicaSet) maxLag() uint64 {
	var max uint64
	for _, l := range rs.links() {
		if lg := l.repl.lag(); lg > max {
			max = lg
		}
	}
	return max
}

// holdRemaining returns how much of the TTL-drain hold-down is left.
func (rs *replicaSet) holdRemaining() time.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if d := time.Until(rs.holdUntil); d > 0 {
		return d
	}
	return 0
}

// settled reports whether a promotion past incarnation before has
// fully completed: the new primary is installed, adoption finished,
// and it is serving (the hold-down may still gate acquires).
func (rs *replicaSet) settled(before uint64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.inc.Load() > before && !rs.promoting && !rs.primary.Halted()
}

// primaryHealthy is the shard supervisor's probe.
func (rs *replicaSet) primaryHealthy() bool {
	return rs.Primary().Healthy()
}

// killPrimary fail-stops the current primary (admin/chaos hook); the
// supervisor notices on its next checks and promotes.
func (rs *replicaSet) killPrimary() {
	rs.Primary().Halt()
}

// killStandby fail-stops standby i (chaos hook); promotions skip
// halted standbys. Reports whether such a standby existed.
func (rs *replicaSet) killStandby(i int) bool {
	rs.mu.Lock()
	var srv *Server
	if i >= 0 && i < len(rs.standbys) {
		srv = rs.standbys[i].srv
	}
	rs.mu.Unlock()
	if srv == nil {
		return false
	}
	srv.Halt()
	return true
}

// gate snapshots the serving state for one request: the primary and
// incarnation to use, or a positive wait when the shard is leaderless
// (promotion in flight or hold-down open).
func (rs *replicaSet) gate() (srv *Server, inc uint64, wait time.Duration) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.promoting {
		return nil, 0, rs.checkEvery
	}
	if d := time.Until(rs.holdUntil); d > 0 {
		return nil, 0, d
	}
	return rs.primary, rs.inc.Load(), 0
}

// acquire serves one acquire through the current primary with
// generation fencing: if a promotion swapped the primary while the
// request was in flight, the grant is surrendered on the server that
// minted it and the client gets ErrDeposed (409) — it re-resolves the
// ring and retries against the successor, so no client ever holds a
// lease only a deposed primary knows about.
//
//lint:lease acquire
func (rs *replicaSet) acquire(ctx context.Context, resources []string, ttl time.Duration) (*Grant, error) {
	srv, inc, wait := rs.gate()
	if wait > 0 {
		return nil, &RetryAfterError{After: wait, Err: ErrLeaderless}
	}
	g, err := srv.Acquire(ctx, resources, ttl)
	if err != nil {
		if errors.Is(err, ErrHalted) {
			// The primary died under the request and promotion has not
			// started yet; the supervisor's next checks will fix it.
			return nil, &RetryAfterError{After: rs.checkEvery, Err: ErrLeaderless}
		}
		return nil, err
	}
	if rs.inc.Load() != inc {
		_ = srv.Release(g.SessionID)
		return nil, ErrDeposed
	}
	return g, nil
}

// release routes a release to the current primary.
//
//lint:lease release
func (rs *replicaSet) release(sessionID string) error {
	err := rs.Primary().Release(sessionID)
	if errors.Is(err, ErrHalted) {
		return &RetryAfterError{After: rs.checkEvery, Err: ErrLeaderless}
	}
	return err
}

// renew routes a renewal to the current primary.
//
//lint:lease renew
func (rs *replicaSet) renew(sessionID string, ttl time.Duration) (time.Duration, error) {
	d, err := rs.Primary().Renew(sessionID, ttl)
	if errors.Is(err, ErrHalted) {
		return 0, &RetryAfterError{After: rs.checkEvery, Err: ErrLeaderless}
	}
	return d, err
}

// leasesOn counts the current primary's live leases naming resource —
// a migration's drain probe. Reads the serving primary, so a promotion
// mid-drain is probed against the successor that adopted the leases.
func (rs *replicaSet) leasesOn(resource string) int {
	return rs.Primary().LeasesOn(resource)
}

// noteSpan replicates a router span decision (prepare/commit/rollback)
// for this shard's sub-lease, so a promoted standby knows which spans
// were mid-protocol. Prepare and commit are semi-synchronous like
// grants; rollback is the safe direction.
func (rs *replicaSet) noteSpan(op byte, subLeaseID string) {
	rs.replicate(LeaseEvent{Op: op, ID: subLeaseID})
}

// onLeaseEvent is every member server's lease tap: only events from the
// current primary replicate — a deposed primary's tap goes nowhere,
// and its direct stream writes are refused by incarnation on the
// standby side.
func (rs *replicaSet) onLeaseEvent(src *Server, ev LeaseEvent) {
	rs.mu.Lock()
	isPrimary := src == rs.primary
	rs.mu.Unlock()
	if !isPrimary {
		return
	}
	rs.replicate(ev)
}

// replicate fans one record out to every standby stream, blocking on
// acks for unsafe-direction records (grant/renew/prepare/commit). A
// stream that repeatedly misses its ack budget is marked degraded and
// no longer waited on — it still receives the stream, but a dead
// standby must not tax every grant forever.
func (rs *replicaSet) replicate(ev LeaseEvent) {
	links := rs.links()
	if len(links) == 0 {
		return
	}
	sync := ev.Op == ReplOpGrant || ev.Op == ReplOpRenew ||
		ev.Op == ReplOpSpanPrepare || ev.Op == ReplOpSpanCommit
	seqs := make([]uint64, len(links))
	for i, l := range links {
		seqs[i] = l.repl.send(ev)
	}
	if !sync {
		return
	}
	for i, l := range links {
		if l.repl.degraded.Load() {
			continue
		}
		if l.repl.wait(seqs[i], rs.ackTimeout) {
			l.repl.waitFails.Store(0)
			continue
		}
		if l.repl.waitFails.Add(1) >= degradedAfter {
			l.repl.degraded.Store(true)
		}
	}
}

// degradedAfter is how many consecutive ack-budget misses demote a
// stream from semi-synchronous to fire-and-forget.
const degradedAfter = 3

// heartbeat sends one liveness record on every stream, advertising the
// last issued sequence number and the primary's latest lease deadline.
// Called by the router's supervisor loop; a halted primary sends none
// (silence is the failure detector's signal).
func (rs *replicaSet) heartbeat() {
	rs.mu.Lock()
	srv := rs.primary
	links := append([]*standbyLink(nil), rs.standbys...)
	promoting := rs.promoting
	rs.mu.Unlock()
	if promoting || len(links) == 0 || !srv.Healthy() {
		return
	}
	var us uint64
	if dl := srv.maxLeaseDeadline(); !dl.IsZero() {
		us = uint64(dl.UnixMicro())
	}
	for _, l := range links {
		l.repl.heartbeat(us)
	}
}

// promote replaces the (presumed dead) primary with the freshest live
// standby under a bumped incarnation — the driver of coord's failover
// protocol: coord chooses the standby, judges the loss evidence, decides
// which proven leases are still worth adopting and how long the
// hold-down lasts; this method swaps the servers and moves the leases.
func (rs *replicaSet) promote() (*promotion, error) {
	start := time.Now()
	rs.mu.Lock()
	if rs.promoting {
		rs.mu.Unlock()
		return nil, errPromoting
	}
	views := make([]coord.Standby, len(rs.standbys))
	for i, l := range rs.standbys {
		st := l.recv.state()
		views[i] = coord.Standby{Live: !l.srv.Halted(), Applied: st.Applied()}
	}
	best := coord.Choose(views)
	if best == -1 {
		rs.mu.Unlock()
		return nil, fmt.Errorf("lockservice: shard %d has no live standby to promote", rs.shard)
	}
	chosen := rs.standbys[best]
	rs.standbys = append(rs.standbys[:best], rs.standbys[best+1:]...)
	rs.deposed = append(rs.deposed, rs.primary)
	rs.promoting = true
	survivors := append([]*standbyLink(nil), rs.standbys...)
	rs.mu.Unlock()

	// The incarnation bumps first: from this instant the old primary's
	// stream writes are refused and its in-flight grants fail the fence
	// check in acquire.
	newInc := rs.inc.Add(1)
	for _, l := range survivors {
		l.repl.setInc(newInc)
	}
	st := chosen.recv.state()
	ev := coord.Evidence{
		StreamGap: st.Gap(),
		Lag:       chosen.repl.lag(),
		Dropped:   chosen.repl.dropped.Load(),
		Stale:     st.Stale(time.Now().UnixMicro(), rs.staleAfter.Microseconds()),
	}
	events := chosen.recv.snapshot()

	// Swap while promoting still gates acquires: the new primary must
	// not serve until adoption completes, but its tap must already
	// route (adoptions replicate to survivors).
	rs.mu.Lock()
	rs.primary = chosen.srv
	rs.mu.Unlock()

	// The chosen standby's inbound stream is done: it IS the primary.
	chosen.close()

	res := &promotion{Shard: rs.shard, Inc: newInc, Lag: ev.Lag}
	now := time.Now().UnixMicro()
	ctx, cancel := context.WithTimeout(context.Background(), chosen.srv.cfg.DefaultTimeout)
	for _, le := range events {
		if !coord.Adoptable(le.Deadline.UnixMicro(), now) {
			res.Skipped++
			continue
		}
		//lint:allow leaselife adoption re-mints a lease the remote client already owns; release stays the client's obligation
		if err := chosen.srv.AdoptLease(ctx, le.ID, le.Resources, le.Deadline); err != nil {
			res.Failed++
		} else {
			res.Adopted++
		}
	}
	cancel()
	ev.FailedAdoptions = res.Failed
	res.Gap = ev.Gap()
	end := time.Now()
	until := coord.HoldUntil(res.Gap, end.UnixMicro(), chosen.srv.cfg.DefaultTTL.Microseconds(), st.DrainTo())
	rs.mu.Lock()
	if until > 0 {
		rs.holdUntil = time.UnixMicro(until)
		res.Hold = rs.holdUntil.Sub(end)
	}
	rs.promoting = false
	rs.mu.Unlock()
	res.Took = time.Since(start)
	return res, nil
}

// stop tears down every replication stream (member servers are stopped
// by the Router, which owns them).
func (rs *replicaSet) stop() {
	rs.mu.Lock()
	links := append([]*standbyLink(nil), rs.standbys...)
	rs.standbys = nil
	rs.mu.Unlock()
	for _, l := range links {
		l.close()
	}
}
