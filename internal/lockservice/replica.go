package lockservice

import (
	"context"
	"errors"
	"fmt"
	"time"
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

// replicaSet is one shard's primary plus its hot standbys, the
// wall-clock shell of a ReplicaCore. All lease traffic flows through it:
// it gates requests during blackouts (ErrLeaderless + Retry-After),
// fences grants that raced a promotion (ErrDeposed), carries the
// streams and waits on their acks, and carries out supervisor-ordered
// promotions.
type replicaSet struct {
	shard      int
	checkEvery time.Duration // retry hint while leaderless with no known end
	members    []*Server     // member 0 is the first primary
	links      []*link       // by member; nil for member 0
	core       *ReplicaCore
}

// newReplicaSet wires primary and standbys into one failover unit: each
// standby gets a live stream, and every member the replication tap
// (the core replicates only the current primary's events). ackTimeout
// bounds semi-synchronous grant replication; staleAfter is the stream
// silence beyond which a promotion assumes loss; checkEvery is the
// Retry-After hint during promotions. A set with no standby installs no
// tap: there is nothing to replicate to.
func newReplicaSet(shardID int, primary *Server, standbys []*Server, ackTimeout, staleAfter, checkEvery time.Duration) *replicaSet {
	rs := &replicaSet{
		shard:      shardID,
		checkEvery: checkEvery,
		members:    append([]*Server{primary}, standbys...),
	}
	cores := make([]*ShardCore, len(rs.members))
	for m, srv := range rs.members {
		cores[m] = srv.core
	}
	rs.core = NewReplicaCore(cores, ackTimeout, staleAfter, func(m int, rec ReplRecord) bool {
		return rs.links[m].enqueue(rec)
	})
	rs.links = make([]*link, len(rs.members))
	if len(standbys) == 0 {
		return rs
	}
	for m, srv := range rs.members {
		if m > 0 {
			rs.links[m] = newLink(rs.core, m)
		}
		srv.SetLeaseTap(func(ev LeaseEvent) { rs.replicate(m, ev) })
	}
	return rs
}

// servers returns every server the set owns — the primary, the
// standbys, the deposed — for teardown and ring-generation fan-out.
func (rs *replicaSet) servers() []*Server { return rs.members }

// Primary returns the currently serving server.
func (rs *replicaSet) Primary() *Server { return rs.members[rs.core.Primary()] }

// acquire serves one acquire through the current primary with
// generation fencing: if a promotion swapped the primary while the
// request was in flight, the grant is surrendered on the server that
// minted it and the client gets ErrDeposed (409) — it re-resolves the
// ring and retries against the successor.
//
//lint:lease acquire
func (rs *replicaSet) acquire(ctx context.Context, resources []string, ttl time.Duration) (*Grant, error) {
	p, inc, wait := rs.core.Gate(time.Now(), rs.checkEvery)
	if wait > 0 {
		return nil, &RetryAfterError{After: wait, Err: ErrLeaderless}
	}
	srv := rs.members[p]
	g, err := srv.Acquire(ctx, resources, ttl)
	if err != nil {
		if errors.Is(err, ErrHalted) {
			// The primary died under the request and promotion has not
			// started yet; the supervisor's next checks will fix it.
			return nil, &RetryAfterError{After: rs.checkEvery, Err: ErrLeaderless}
		}
		return nil, err
	}
	if rs.core.Deposed(inc) {
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
	return rs.Primary().core.LeasesOn(resource)
}

// replicate is member src's lease tap: the core streams the event if
// src is the primary, and a semi-synchronous record blocks here until
// every stream it waits on acked or the ack budget lapsed.
func (rs *replicaSet) replicate(src int, ev LeaseEvent) {
	w := rs.core.Publish(src, ev, time.Now())
	if w == nil {
		return
	}
	for _, sw := range w.waits {
		rs.links[sw.st.member].wait(sw.seq, w.Until)
	}
	rs.core.Settle(w, time.Now())
}

// promote replaces the (presumed dead) primary with the freshest live
// standby under a bumped incarnation — the ReplicaCore's promotion step
// on the wall clock: the chosen standby's stream closes, and each proven
// lease is adopted through Server.AdoptLease, waiting at most the new
// primary's DefaultTimeout in all. It returns the promotion and how long
// it took, decision to serving (the MTTR numerator).
func (rs *replicaSet) promote() (*Promotion, time.Duration, error) {
	start := time.Now()
	live := func(m int) bool { return !rs.members[m].Halted() }
	p, err := rs.core.Promote(start, live)
	if err != nil {
		return nil, 0, fmt.Errorf("lockservice: shard %d: %w", rs.shard, err)
	}
	rs.links[p.Chosen].close()
	srv := rs.members[p.Chosen]
	ctx, cancel := context.WithTimeout(context.Background(), srv.cfg.DefaultTimeout)
	rs.core.Adopt(p, time.Now(), func(le LeaseEvent) bool {
		//lint:allow leaselife adoption re-mints a lease the remote client already owns; release stays the client's obligation
		return srv.AdoptLease(ctx, le.ID, le.Resources, le.Deadline) == nil
	})
	cancel()
	rs.core.Complete(p, time.Now(), live)
	return p, time.Since(start), nil
}

// stop tears down every replication stream (member servers are stopped
// by the Router, which owns them).
func (rs *replicaSet) stop() {
	for _, l := range rs.links {
		if l != nil {
			l.close()
		}
	}
}
