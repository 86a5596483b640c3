//lint:deterministic

package lockservice

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// Alive reports whether worker p of nw can back a grant: its current
// incarnation has not halted, is not ending — a kill or restart it has
// not polled yet (msgpass.Network.Halting) — and it has not left the
// service.
func Alive(nw *msgpass.Network, p graph.ProcID) bool {
	return aliveIn(nw.Snapshot(p), nw, p)
}

// aliveIn is Alive for a caller that already holds p's snapshot.
func aliveIn(snap msgpass.Snapshot, nw *msgpass.Network, p graph.ProcID) bool {
	return queueable(snap, nw, p) && !nw.Halting(p)
}

// queueable reports whether a session may wait at worker p: it has not
// halted and has not left the service. A worker whose reboot is pending
// is queueable but not Alive — the session waits for its new
// incarnation.
func queueable(snap msgpass.Snapshot, nw *msgpass.Network, p graph.ProcID) bool {
	return !snap.Dead && !nw.Departed(p)
}

// Eating reports whether worker p of nw is inside its exclusive window
// and can back the grants made in it.
func Eating(nw *msgpass.Network, p graph.ProcID) bool {
	snap := nw.Snapshot(p)
	return snap.State == core.Eating && aliveIn(snap, nw, p)
}

// lease is a live grant tracked for TTL expiry. home is the worker that
// backed the grant, by its eating window or by having the bottles at
// hand, and inc is that worker's incarnation then: a new incarnation
// vouches for none of the old one's leases, so a restart fences them.
type lease struct {
	id        string
	sess      *drinkers.Session
	resources []string
	home      graph.ProcID
	inc       int64
	grantedAt time.Time
	deadline  time.Time
}

// ShardCore is one shard's lease lifecycle with no clock in it: home
// choice, the session arbiter and its pump over the diners substrate,
// and the lease table — grant, release, renew, expiry, fence and
// adoption. Methods take the time as now, as internal/coord's do, so the
// Server runs the core on the wall clock and detsim on its virtual one.
// Mutations return the LeaseEvents the replication tap publishes, in
// lease-ID order; publishing them, and every wait, is the caller's.
type ShardCore struct {
	shard  int
	ttl    time.Duration // DefaultTTL
	maxTTL time.Duration // max(MaxTimeout, DefaultTTL): no TTL exceeds it
	mapper *ResourceMapper
	arb    *drinkers.Arbiter
	nw     *msgpass.Network

	mu     sync.Mutex        //lint:order rank lockservice 22
	leases map[string]*lease // guarded by mu
	idCtr  atomic.Uint64
}

// NewShardCore builds shard cfg.ShardID's lease lifecycle over nw, its
// diners substrate, from cfg's Graph, QueueLimit, History, DefaultTTL
// and MaxTimeout, defaulted as NewServer defaults them.
func NewShardCore(cfg Config, nw *msgpass.Network) *ShardCore {
	cfg = cfg.withDefaults()
	c := &ShardCore{
		shard:  cfg.ShardID,
		ttl:    cfg.DefaultTTL,
		maxTTL: max(cfg.MaxTimeout, cfg.DefaultTTL),
		mapper: NewResourceMapper(cfg.Graph),
		arb:    drinkers.NewArbiter(cfg.Graph, cfg.QueueLimit),
		nw:     nw,
		leases: make(map[string]*lease),
	}
	if cfg.History != nil {
		cfg.History.Tap(c.arb)
	}
	c.arb.Alive = func(p graph.ProcID) bool { return Alive(nw, p) } // the at-hand rule's liveness
	return c
}

// Arbiter returns the core's session arbiter.
func (c *ShardCore) Arbiter() *drinkers.Arbiter { return c.arb }

// Mapper returns the core's resource mapper.
func (c *ShardCore) Mapper() *ResourceMapper { return c.mapper }

// TTL is the one lease-lifetime rule of grants, renewals and span
// prepares and commits: ttl <= 0 means DefaultTTL, and no lease gets more
// than max(MaxTimeout, DefaultTTL) in one hop — holders renew. The cap
// matters beyond the lease: the latest deadline bounds a failover's drain.
func (c *ShardCore) TTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return c.ttl
	}
	return min(ttl, c.maxTTL)
}

// Enqueue maps resources onto a drinkers session and queues it at the
// live candidate home with the shorter queue, ties to the lower ID.
func (c *ShardCore) Enqueue(resources []string) (*drinkers.Session, error) {
	bottles, homes, err := c.mapper.MapSession(resources)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnmappable, err)
	}
	// Departed homes are excluded even before their kill lands: a session
	// queued there would wait on a worker that is never coming back.
	live := homes[:0]
	for _, p := range homes {
		if queueable(c.nw.Snapshot(p), c.nw, p) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: homes %v all dead", ErrUnserviceable, homes)
	}
	// A bottle has two endpoints, so there are at most two candidates, in
	// ID order.
	if len(live) == 2 && c.arb.QueueDepth(live[1]) < c.arb.QueueDepth(live[0]) {
		live[0], live[1] = live[1], live[0]
	}
	var sess *drinkers.Session
	for _, p := range live {
		if sess, err = c.arb.Submit(p, bottles); err == nil {
			break
		}
	}
	if errors.Is(err, drinkers.ErrQueueFull) {
		return nil, ErrQueueFull
	}
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// Serve grants a queued session on the spot when its bottles are at
// hand — the home never turns hungry — and otherwise, reporting false,
// pumps, making the home hungry for the meal that will collect them.
func (c *ShardCore) Serve(sess *drinkers.Session) (granted bool) {
	if c.arb.TryAtHand(sess) {
		return true
	}
	c.Pump() // sess is queued: its home turns hungry and is woken
	return false
}

// Pump runs one scheduling pass of the arbiter over its substrate:
// every queue head whose live home is inside its exclusive window, or
// whose bottles are at hand (at the home, or surrendered by a live peer
// nobody queued at asks for them), is granted, and — from the same
// instant of the arbiter's state — each worker is made hungry exactly
// when sessions are still queued at it, and woken if that changed. The
// Server (on its event loop when a worker enters Eating, on the caller's
// goroutine after every other change) and detsim advance only through
// this step. It never waits on the event loop, which is what lets the
// loop call it.
func (c *ShardCore) Pump() {
	c.arb.PumpNeeds(func(p graph.ProcID) bool {
		return Eating(c.nw, p)
	}, func(p graph.ProcID, pending bool) {
		if c.nw.Needs(p) != pending {
			c.nw.SetNeeds(p, pending)
			c.nw.Wake(p)
		}
	})
}

// Withdraw gives up a session nobody will take — canceled, or released
// if its grant won the race — and pumps.
func (c *ShardCore) Withdraw(sess *drinkers.Session) {
	if !c.arb.Cancel(sess) {
		c.arb.Release(sess)
	}
	c.Pump()
}

// Grant turns a granted session into a lease on resources, minted a
// fresh ID, living TTL(ttl) from now, and returns its grant event.
func (c *ShardCore) Grant(sess *drinkers.Session, resources []string, ttl time.Duration, now time.Time) LeaseEvent {
	return c.insert(leaseID(c.shard, c.idCtr.Add(1), sess.Home), sess, resources, now, now.Add(c.TTL(ttl)))
}

// Adopt is Grant for a lease a promoted standby proved (see
// Server.AdoptLease): its original ID and deadline are kept, and the ID's
// counter is folded into the core's so no later grant duplicates it.
func (c *ShardCore) Adopt(sess *drinkers.Session, id string, resources []string, deadline, now time.Time) LeaseEvent {
	if n, ok := sessionCounter(id); ok {
		for {
			cur := c.idCtr.Load()
			if cur >= n || c.idCtr.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	return c.insert(id, sess, resources, now, deadline)
}

// insert records a lease and returns its grant event.
func (c *ShardCore) insert(id string, sess *drinkers.Session, resources []string, now, deadline time.Time) LeaseEvent {
	l := &lease{
		id:        id,
		sess:      sess,
		resources: append([]string(nil), resources...),
		home:      sess.Home,
		inc:       c.nw.Snapshot(sess.Home).Incarnation,
		grantedAt: now,
		deadline:  deadline,
	}
	c.mu.Lock()
	c.leases[l.id] = l
	c.mu.Unlock()
	return LeaseEvent{Op: ReplOpGrant, ID: l.id, Resources: l.resources, Deadline: l.deadline}
}

// Release ends the lease with the given ID and returns its release event
// and how long it was held; ErrNotFound when it is not live.
func (c *ShardCore) Release(id string, now time.Time) (LeaseEvent, time.Duration, error) {
	c.mu.Lock()
	l, ok := c.leases[id]
	if ok {
		delete(c.leases, id)
	}
	c.mu.Unlock()
	if !ok {
		return LeaseEvent{}, 0, ErrNotFound
	}
	c.arb.Release(l.sess)
	c.Pump()
	return LeaseEvent{Op: ReplOpRelease, ID: l.id}, now.Sub(l.grantedAt), nil
}

// Renew moves a live lease's deadline to TTL(ttl) from now and returns
// its renew event and the lifetime granted; ErrNotFound when the lease
// expired, was fenced or never existed.
func (c *ShardCore) Renew(id string, ttl time.Duration, now time.Time) (LeaseEvent, time.Duration, error) {
	ttl = c.TTL(ttl)
	c.mu.Lock()
	l, ok := c.leases[id]
	var deadline time.Time
	if ok {
		l.deadline = now.Add(ttl)
		deadline = l.deadline
	}
	c.mu.Unlock()
	if !ok {
		return LeaseEvent{}, 0, ErrNotFound
	}
	return LeaseEvent{Op: ReplOpRenew, ID: id, Deadline: deadline}, ttl, nil
}

// Expire is the janitor's pass: every lease whose deadline now is past
// is released, and their expire events are returned. It does not pump:
// the caller counts and streams the expiries first, then calls Pump when
// there were any, so no waiter granted the freed resources is seen ahead
// of the expiry that freed them.
func (c *ShardCore) Expire(now time.Time) []LeaseEvent {
	return c.revoke(ReplOpExpire, func(l *lease) bool { return now.After(l.deadline) })
}

// Fence revokes every lease homed at node, whose incarnation ends (see
// Restart and Leave), and returns their fence events. Queued sessions
// stay queued.
func (c *ShardCore) Fence(node graph.ProcID) []LeaseEvent {
	return c.revoke(ReplOpFence, func(l *lease) bool { return l.home == node })
}

// revoke removes the leases that match, releases their sessions and
// returns their op events.
func (c *ShardCore) revoke(op byte, match func(*lease) bool) []LeaseEvent {
	revoked := c.where(match, true)
	evs := make([]LeaseEvent, 0, len(revoked))
	for _, l := range revoked {
		c.arb.Release(l.sess)
		evs = append(evs, LeaseEvent{Op: op, ID: l.id})
	}
	return evs
}

// where returns the leases that match in lease-ID order (map order must
// not reach the arbiter: cascades replay identically), removing them
// from the table if remove.
func (c *ShardCore) where(match func(*lease) bool, remove bool) []*lease {
	c.mu.Lock()
	var out []*lease
	for id, l := range c.leases {
		if match(l) {
			out = append(out, l)
			if remove {
				delete(c.leases, id)
			}
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// restartFence is the fence a restart runs before the node reboots. The
// mutation test swaps it for one that skips garbage restarts.
var restartFence = func(c *ShardCore, node graph.ProcID, _ msgpass.RestartMode) []LeaseEvent {
	return c.Fence(node)
}

// Restart fences node's leases, then revives it, clean or with garbage
// state, and pumps. It returns the fence events. Until the node's next
// event reboots it, Alive reports it down, so nothing is granted on the
// incarnation that is ending; the node is woken for that event.
func (c *ShardCore) Restart(node graph.ProcID, mode msgpass.RestartMode) []LeaseEvent {
	fenced := restartFence(c, node, mode)
	c.nw.Restart(node, mode)
	c.nw.Wake(node)
	c.Pump()
	return fenced
}

// Leave splices node out of the conflict graph, then fences its leases
// and pumps. It returns the fence events.
func (c *ShardCore) Leave(node graph.ProcID) ([]LeaseEvent, error) {
	if err := c.nw.RemoveProcess(node); err != nil {
		return nil, err
	}
	fenced := c.Fence(node)
	c.Pump()
	return fenced, nil
}

// ActiveLeases returns the number of live leases.
func (c *ShardCore) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// LeasesOn counts live leases naming resource — the drain probe a key
// migration polls until the source shard provably holds no grant on
// the moving key.
func (c *ShardCore) LeasesOn(resource string) int {
	return len(c.where(func(l *lease) bool { return slices.Contains(l.resources, resource) }, false))
}

// Deadline returns the live lease's deadline; ok is false when the lease
// is not live.
func (c *ShardCore) Deadline(id string) (deadline time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.leases[id]; ok {
		return l.deadline, true
	}
	return time.Time{}, false
}

// StaleLeases returns, in ID order, the live leases whose home no longer
// runs the incarnation that granted them — each a client holding a lock
// the protocol stopped backing. A fence on every restart keeps it empty.
func (c *ShardCore) StaleLeases() []string {
	var ids []string
	for _, l := range c.where(func(l *lease) bool { return c.nw.Snapshot(l.home).Incarnation != l.inc }, false) {
		ids = append(ids, l.id)
	}
	return ids
}

// maxLeaseDeadline returns the latest deadline across live leases
// (zero when the table is empty) — the TTL-drain bound heartbeats
// advertise to standbys.
func (c *ShardCore) maxLeaseDeadline() (max time.Time) {
	for _, l := range c.where(func(*lease) bool { return true }, false) {
		if l.deadline.After(max) {
			max = l.deadline
		}
	}
	return max
}

// leaseID renders a lease's session ID, "k<shard>:s<counter hex>-<home>"
// with the counter zero-padded to eight digits — byte for byte
// fmt.Sprintf("k%d:s%08x-%d", shard, counter, home), built without
// fmt's reflection.
func leaseID(shard int, counter uint64, home graph.ProcID) string {
	var b [48]byte
	var x [16]byte
	hex := strconv.AppendUint(x[:0], counter, 16)
	id := append(b[:0], 'k')
	id = strconv.AppendInt(id, int64(shard), 10)
	id = append(id, ':', 's')
	id = append(id, "00000000"[min(len(hex), 8):]...)
	id = append(id, hex...)
	id = append(id, '-')
	id = strconv.AppendInt(id, int64(home), 10)
	return string(id)
}

// sessionCounter extracts the hex counter from a session ID of the form
// "k<shard>:s<counter hex>-<home>". ok is false for foreign formats.
func sessionCounter(id string) (uint64, bool) {
	i := strings.Index(id, ":s")
	if i < 0 {
		return 0, false
	}
	rest := id[i+2:]
	j := strings.IndexByte(rest, '-')
	if j < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest[:j], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
