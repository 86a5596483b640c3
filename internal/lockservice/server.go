package lockservice

import (
	"context"
	"errors"
	"fmt"
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
	"mcdp/internal/sim"
	"mcdp/internal/stats"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrUnmappable: the resource set spans arbitration shards (422).
	ErrUnmappable = errors.New("lockservice: unmappable resource set")
	// ErrQueueFull: every candidate home's queue is at capacity (429).
	ErrQueueFull = errors.New("lockservice: all candidate queues full")
	// ErrTimeout: the request's wait budget expired before a grant (408).
	ErrTimeout = errors.New("lockservice: acquire timed out")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("lockservice: server draining")
	// ErrUnserviceable: every candidate home worker is dead (503).
	ErrUnserviceable = errors.New("lockservice: no live worker can arbitrate this resource set")
	// ErrNotFound: unknown session ID (404).
	ErrNotFound = errors.New("lockservice: unknown session")
	// ErrWrongShard: the client routed with a stale ring generation (409).
	ErrWrongShard = errors.New("lockservice: stale ring generation")
	// ErrSpanAborted: a cross-shard span lost a prepare lease before
	// commit and every sub-lease was rolled back (409, retryable — the
	// span left no residue, so a fresh attempt is safe).
	ErrSpanAborted = errors.New("lockservice: span aborted")
	// ErrDeparted: the node left the service; only a join readmits it.
	ErrDeparted = errors.New("lockservice: node has departed")
	// ErrHalted: the server was fail-stopped (a killed shard primary);
	// a supervisor-promoted standby will take over (503, retryable).
	ErrHalted = errors.New("lockservice: server halted")
	// ErrLeaderless: the shard has no serving primary right now —
	// promotion is in flight or the post-failover TTL-drain window is
	// open (503 with Retry-After, retryable).
	ErrLeaderless = errors.New("lockservice: shard leaderless, failover in progress")
	// ErrDeposed: the grant was produced by a primary that lost its
	// shard to a promoted standby mid-request; the lease was released
	// and the client must retry under the new ring generation (409,
	// retryable — nothing is held).
	ErrDeposed = errors.New("lockservice: primary deposed mid-request")
)

// Config tunes a Server.
type Config struct {
	// Graph is the worker topology (a lock per edge). Defaults to
	// DemoTopology().
	Graph *graph.Graph
	// ShardID identifies this server inside a sharded deployment; it
	// prefixes every session ID ("k<shard>:s...") so a Router can route
	// releases without a lookup table.
	ShardID int
	// Seed drives the msgpass substrate.
	Seed int64
	// QueueLimit bounds each worker's pending-session queue; overflowing
	// requests are rejected with ErrQueueFull (default 64).
	QueueLimit int
	// DefaultTimeout caps how long an Acquire without its own budget
	// waits for a grant (default 5s). MaxTimeout caps client-supplied
	// budgets (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultTTL is the lease time-to-live: a granted session not
	// released within its TTL is expired server-side so a crashed or
	// wedged client cannot hold a lock forever (default 30s).
	DefaultTTL time.Duration
	// TickEvery and EatEvents pass through to the msgpass substrate.
	TickEvery time.Duration
	EatEvents int
	// LossRate passes through to the msgpass substrate (frame loss).
	LossRate float64
	// Faults, when non-nil, passes a fault injector through to the
	// msgpass substrate (chaos campaigns against a live server).
	Faults msgpass.FaultInjector
	// Supervise, when non-nil, starts the self-healing supervisor: a
	// loop that health-checks workers and restarts crashed ones with
	// capped exponential backoff (see SupervisorConfig).
	Supervise *SupervisorConfig
	// History, when non-nil, records every session lifecycle event for
	// post-run mutual-exclusion and linearizability checking (tests and
	// the detsim harness; unbounded, so not for long-lived servers).
	History *History
}

// Grant is a successful acquisition: a lease on the requested
// resources.
type Grant struct {
	// SessionID identifies the lease for Release.
	SessionID string
	// Node is the worker that arbitrated (and granted) the session.
	Node graph.ProcID
	// Resources echoes the requested resource names.
	Resources []string
	// Wait is how long the request waited for its grant.
	Wait time.Duration
}

// lease is a live grant tracked for TTL expiry. home is the worker that
// backed the grant, by its eating window or by having the bottles at
// hand: when that worker restarts, the new incarnation's protocol state
// no longer vouches for the lease, so RestartNode fences every lease
// homed there.
type lease struct {
	id        string
	sess      *drinkers.Session
	resources []string
	home      graph.ProcID
	grantedAt time.Time
	deadline  time.Time
}

// Server is the dinerd core: the msgpass diners network, the drinkers
// session arbiter, and the lease bookkeeping — one in-process shard.
// Create with NewServer, then Start; clients reach it through a Router,
// which owns the HTTP and wire surfaces.
type Server struct {
	cfg     Config
	g       *graph.Graph
	mapper  *ResourceMapper
	arb     *drinkers.Arbiter
	nw      *msgpass.Network
	metrics *Metrics
	fams    stats.Families

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex        //lint:order rank lockservice 20
	leases   map[string]*lease // guarded by mu
	draining bool              // guarded by mu
	started  bool              // guarded by mu
	startAt  time.Time         // guarded by mu

	idCtr   atomic.Uint64
	ringGen atomic.Uint64 // set by the Router on ring membership changes
	halted  atomic.Bool   // fail-stop flag: set by Halt, never cleared
	// adviseBackoff, when non-zero, overrides Supervise.BackoffBase —
	// the rebalance controller's derived tuning (nanoseconds).
	adviseBackoff atomic.Int64

	// tap, when non-nil, observes every lease-table mutation (grant,
	// release, renew, expire, fence) — the replication hook. Set before
	// Start via SetLeaseTap; called without mu held, so a tap may block
	// (semi-synchronous replication) without stalling other sessions'
	// bookkeeping.
	tap func(LeaseEvent)
}

// NewServer builds a server; it does not start any goroutines.
func NewServer(cfg Config) *Server {
	if cfg.Graph == nil {
		cfg.Graph = DemoTopology()
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 30 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		g:       cfg.Graph,
		mapper:  NewResourceMapper(cfg.Graph),
		arb:     drinkers.NewArbiter(cfg.Graph, cfg.QueueLimit),
		metrics: NewMetrics(),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		leases:  make(map[string]*lease),
	}
	if cfg.History != nil {
		cfg.History.Tap(s.arb)
	}
	hungry := make([]bool, cfg.Graph.N()) // nobody hungry until demand arrives
	s.nw = msgpass.NewNetwork(msgpass.Config{
		Graph:            cfg.Graph,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(cfg.Graph),
		Hungry:           hungry,
		EatEvents:        cfg.EatEvents,
		TickEvery:        cfg.TickEvery,
		LossRate:         cfg.LossRate,
		Faults:           cfg.Faults,
		Seed:             cfg.Seed,
		OnSnapshot: func(p graph.ProcID, snap msgpass.Snapshot) {
			// Nudge the scheduler only on windows it can use; the pump
			// re-reads all state anyway, so coalescing loses nothing.
			if snap.State == core.Eating && !snap.Dead {
				s.nudge()
			}
		},
	})
	Couple(s.arb, s.nw)
	s.fams.Register(s.families()...)
	return s
}

// Graph returns the worker topology.
func (s *Server) Graph() *graph.Graph { return s.g }

// Mapper returns the server's resource mapper.
func (s *Server) Mapper() *ResourceMapper { return s.mapper }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start launches the diners network, the scheduler, and the lease
// janitor. It may be called once.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("lockservice: Start called twice")
	}
	s.started = true
	s.startAt = time.Now()
	s.mu.Unlock()
	s.nw.Start()
	s.wg.Add(2)
	go s.pumpLoop()
	go s.janitor()
	if s.cfg.Supervise != nil {
		s.wg.Add(1)
		go s.superviseLoop()
	}
}

// nudge wakes the scheduler without ever blocking.
func (s *Server) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pumpLoop turns eating windows, and freed bottles at hand, into grants:
// every nudge runs one PumpStep.
func (s *Server) pumpLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.wake:
		}
		PumpStep(s.arb, s.nw)
	}
}

// janitor expires leases past their TTL.
func (s *Server) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		now := time.Now()
		s.mu.Lock()
		var expired []*lease
		for id, l := range s.leases {
			if now.After(l.deadline) {
				expired = append(expired, l)
				delete(s.leases, id)
			}
		}
		s.mu.Unlock()
		// Map order must not reach the arbiter: release in lease-id order
		// so expiry cascades replay identically run to run.
		sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
		for _, l := range expired {
			s.arb.Release(l.sess)
			s.metrics.Expirations.Add(1)
			s.nudge()
			s.emit(LeaseEvent{Op: ReplOpExpire, ID: l.id})
		}
	}
}

// Acquire blocks until the resource set is granted, the context or the
// server's wait budget expires, or the server drains. ttl <= 0 uses the
// configured default lease TTL.
//
//lint:lease acquire
func (s *Server) Acquire(ctx context.Context, resources []string, ttl time.Duration) (*Grant, error) {
	s.metrics.AcquireRequests.Add(1)
	if s.halted.Load() {
		return nil, ErrHalted
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.metrics.RejectedDraining.Add(1)
		return nil, ErrDraining
	}
	sess, err := s.enqueue(resources)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnmappable):
			s.metrics.RejectedUnmappable.Add(1)
		case errors.Is(err, ErrUnserviceable):
			s.metrics.RejectedUnserviceable.Add(1)
		case errors.Is(err, ErrQueueFull):
			s.metrics.RejectedQueueFull.Add(1)
		}
		return nil, err
	}
	home := sess.Home
	start := time.Now()
	if !s.serve(sess) {
		if err := s.await(ctx, sess); err != nil {
			return nil, err
		}
	}
	// One clock reading is the end of the wait, the lease's grant time and
	// the base of its deadline.
	now := time.Now()
	wait := now.Sub(start)
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	l := &lease{
		id:        fmt.Sprintf("k%d:s%08x-%d", s.cfg.ShardID, s.idCtr.Add(1), home),
		sess:      sess,
		resources: append([]string(nil), resources...),
		home:      home,
		grantedAt: now,
		deadline:  now.Add(ttl),
	}
	s.mu.Lock()
	s.leases[l.id] = l
	s.mu.Unlock()
	if s.halted.Load() {
		// Halt landed between the grant and its publication: swallow the
		// lease rather than hand out a grant the promoted successor never
		// saw (the replication tap below has not run yet).
		s.mu.Lock()
		delete(s.leases, l.id)
		s.mu.Unlock()
		s.arb.Release(sess)
		return nil, ErrHalted
	}
	// Replicate before the client sees the grant: any client-visible
	// lease was offered to the standbys first (semi-synchronous taps
	// block here until acked or degraded).
	s.emit(LeaseEvent{Op: ReplOpGrant, ID: l.id, Resources: l.resources, Deadline: l.deadline})
	s.metrics.Grants.Add(1)
	s.metrics.WaitHist.Observe(wait.Seconds())
	return &Grant{SessionID: l.id, Node: home, Resources: l.resources, Wait: wait}, nil
}

// await blocks until sess is granted, or gives it up — canceled, or
// released if the grant won the race — when the context, the server's
// wait budget or the server itself ends first.
func (s *Server) await(ctx context.Context, sess *drinkers.Session) error {
	budget := s.cfg.DefaultTimeout
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl); d < budget || budget == 0 {
			budget = d
		}
	}
	if budget > s.cfg.MaxTimeout {
		budget = s.cfg.MaxTimeout
	}
	timer := time.NewTimer(budget)
	defer timer.Stop()

	abort := func(reject *atomic.Int64, err error) error {
		if !s.arb.Cancel(sess) {
			// Granted in the race; nobody will ever release it but us.
			s.arb.Release(sess)
		}
		s.nw.SetNeeds(sess.Home, s.arb.HasPending(sess.Home))
		s.nudge()
		reject.Add(1)
		return err
	}
	select {
	case <-sess.Granted():
		return nil
	case <-ctx.Done():
		return abort(&s.metrics.RejectedTimeout, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err()))
	case <-timer.C:
		return abort(&s.metrics.RejectedTimeout, ErrTimeout)
	case <-s.done:
		return abort(&s.metrics.RejectedDraining, ErrDraining)
	}
}

// Release ends the lease with the given session ID.
//
//lint:lease release
func (s *Server) Release(sessionID string) error {
	if s.halted.Load() {
		return ErrHalted
	}
	s.mu.Lock()
	l, ok := s.leases[sessionID]
	if ok {
		delete(s.leases, sessionID)
	}
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.arb.Release(l.sess)
	s.metrics.Releases.Add(1)
	s.metrics.HoldHist.Observe(time.Since(l.grantedAt).Seconds())
	s.nudge()
	s.emit(LeaseEvent{Op: ReplOpRelease, ID: l.id})
	return nil
}

// Renew extends a live lease's TTL from now (ttl <= 0 uses the
// configured default) and returns the granted lifetime. Renewing a
// lease that has expired, been fenced, or was never granted reports
// ErrNotFound — the fencing rules are unchanged: a restart of the
// lease's home still revokes it no matter how recently it was renewed.
//
//lint:lease renew
func (s *Server) Renew(sessionID string, ttl time.Duration) (time.Duration, error) {
	if s.halted.Load() {
		return 0, ErrHalted
	}
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	if ttl > s.cfg.MaxTimeout && s.cfg.MaxTimeout > 0 {
		// Leases cannot outlive the service's largest budget in one hop;
		// long-lived holders renew repeatedly instead.
		ttl = s.cfg.MaxTimeout
	}
	s.mu.Lock()
	l, ok := s.leases[sessionID]
	var deadline time.Time
	if ok {
		l.deadline = time.Now().Add(ttl)
		deadline = l.deadline
	}
	s.mu.Unlock()
	if !ok {
		return 0, ErrNotFound
	}
	s.metrics.Renewals.Add(1)
	s.emit(LeaseEvent{Op: ReplOpRenew, ID: sessionID, Deadline: deadline})
	return ttl, nil
}

// ActiveLeases returns the number of live leases.
func (s *Server) ActiveLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// LeasesOn counts live leases naming resource — the drain probe a key
// migration polls until the source shard provably holds no grant on
// the moving key.
func (s *Server) LeasesOn(resource string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.leases {
		for _, res := range l.resources {
			if res == resource {
				n++
				break
			}
		}
	}
	return n
}

// AdviseRestartBackoff sets the supervisor's restart-backoff base from
// the rebalance controller's observed-latency advice; zero restores
// the configured constant.
func (s *Server) AdviseRestartBackoff(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.adviseBackoff.Store(int64(d))
}

// InjectCrash triggers the malicious-crash fault machinery on a worker:
// steps > 0 gives the node that many arbitrary (garbage-spewing) events
// before it halts; steps <= 0 is a benign kill. This is the admin
// surface that lets locality-2 be demonstrated against a live server.
func (s *Server) InjectCrash(node graph.ProcID, steps int) error {
	if node < 0 || int(node) >= s.g.N() {
		return fmt.Errorf("lockservice: node %d out of range [0,%d)", node, s.g.N())
	}
	if steps > 0 {
		s.nw.CrashMaliciously(node, steps)
	} else {
		s.nw.Kill(node)
	}
	s.metrics.CrashesInjected.Add(1)
	s.nudge()
	return nil
}

// RestartNode revives a worker, clean or with arbitrary garbage state,
// returning how many leases it fenced. Leases homed at the node were
// granted by its pre-restart incarnation, whose eating window is gone;
// leaving them live would let a client hold a lock the protocol no
// longer backs, so they are revoked (fenced) before the node rejoins —
// a later Release on a fenced lease reports ErrNotFound.
func (s *Server) RestartNode(node graph.ProcID, mode msgpass.RestartMode) (int, error) {
	if node < 0 || int(node) >= s.g.N() {
		return 0, fmt.Errorf("lockservice: node %d out of range [0,%d)", node, s.g.N())
	}
	if s.Departed(node) {
		return 0, fmt.Errorf("%w: node %d (use join to readmit)", ErrDeparted, node)
	}
	fenced := s.fenceLeases(node)
	s.nw.Restart(node, mode)
	s.metrics.NodeRestarts.Add(1)
	s.nudge()
	return fenced, nil
}

// fenceLeases revokes every lease homed at node and returns the count.
// Called whenever the node's current incarnation ends (restart or
// leave): its eating windows no longer back those grants.
func (s *Server) fenceLeases(node graph.ProcID) int {
	s.mu.Lock()
	var fenced []*lease
	for id, l := range s.leases {
		if l.home == node {
			fenced = append(fenced, l)
			delete(s.leases, id)
		}
	}
	s.mu.Unlock()
	// Map order must not reach the arbiter (same rule as the janitor):
	// release in lease-id order so fencing replays identically.
	sort.Slice(fenced, func(i, j int) bool { return fenced[i].id < fenced[j].id })
	for _, l := range fenced {
		s.arb.Release(l.sess)
		s.metrics.LeasesFenced.Add(1)
		s.emit(LeaseEvent{Op: ReplOpFence, ID: l.id})
	}
	return len(fenced)
}

// Departed reports whether node has left the service.
func (s *Server) Departed(node graph.ProcID) bool {
	return int(node) < s.g.N() && s.nw.Departed(node)
}

// LeaveNode removes a worker from service: its leases are fenced and
// the node is spliced out of the conflict graph, so any edge tokens it
// held vanish with its edges instead of starving the neighbors waiting
// on them (a plain kill would pin those tokens forever). Unlike a
// crash, neither the supervisor nor the restart endpoint will revive
// it — only JoinNode readmits it. Returns how many leases were fenced.
func (s *Server) LeaveNode(node graph.ProcID) (int, error) {
	if node < 0 || int(node) >= s.g.N() {
		return 0, fmt.Errorf("lockservice: node %d out of range [0,%d)", node, s.g.N())
	}
	if s.Departed(node) {
		return 0, fmt.Errorf("%w: node %d", ErrDeparted, node)
	}
	if err := s.nw.RemoveProcess(node); err != nil {
		return 0, err
	}
	fenced := s.fenceLeases(node)
	s.metrics.NodeLeaves.Add(1)
	s.nudge()
	return fenced, nil
}

// JoinNode readmits a departed worker by splicing it back into the
// conflict graph next to its still-present topology neighbors, through
// the humble clean reboot: it comes back holding nothing, with priority
// ceded on every restored edge, so the join cannot disturb a session in
// progress. Edges to neighbors that are themselves departed return when
// those neighbors rejoin.
func (s *Server) JoinNode(node graph.ProcID) error {
	if node < 0 || int(node) >= s.g.N() {
		return fmt.Errorf("lockservice: node %d out of range [0,%d)", node, s.g.N())
	}
	if !s.Departed(node) {
		return fmt.Errorf("lockservice: node %d has not departed", node)
	}
	var neighbors []graph.ProcID
	for _, q := range s.g.Neighbors(node) {
		if !s.Departed(q) {
			neighbors = append(neighbors, q)
		}
	}
	if err := s.nw.JoinProcess(node, neighbors); err != nil {
		return err
	}
	s.metrics.NodeJoins.Add(1)
	s.nudge()
	return nil
}

// SetRingGen records the consistent-hash ring generation this server is
// serving under; the Router updates it on every ring membership change
// so /v1/status answers from any shard agree on the routing epoch.
func (s *Server) SetRingGen(gen uint64) { s.ringGen.Store(gen) }

// Stop drains the server: new acquires are rejected, pending waiters
// are woken with ErrDraining, and live leases are given until the
// context's deadline to be released before being dropped. It then
// stops the diners network. Stop is idempotent.
func (s *Server) Stop(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	started := s.started
	s.mu.Unlock()
	close(s.done)
	// Graceful drain: wait for clients to release their leases. A
	// halted server skips it — it was fenced out by a promotion, its
	// lease copies live on (were adopted by) the successor, and no
	// client can release through it anyway.
	for !s.halted.Load() {
		s.mu.Lock()
		n := len(s.leases)
		s.mu.Unlock()
		if n == 0 || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(20 * time.Millisecond):
		}
	}
	if started {
		s.nw.Stop()
		s.wg.Wait()
	}
}

// enqueue maps resources onto a drinkers session and queues it at the
// live candidate home with the shortest queue.
func (s *Server) enqueue(resources []string) (*drinkers.Session, error) {
	bottles, homes, err := s.mapper.MapSession(resources)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnmappable, err)
	}
	// Departed homes are excluded even before their kill lands: a session
	// queued there would wait on a worker that is never coming back.
	live := homes[:0]
	for _, p := range homes {
		if Alive(s.nw, p) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: homes %v all dead", ErrUnserviceable, homes)
	}
	// Shortest queue first, ties to the lower ID. A bottle has two
	// endpoints, so there are at most two candidates, in ID order.
	if len(live) == 2 && s.arb.QueueDepth(live[1]) < s.arb.QueueDepth(live[0]) {
		live[0], live[1] = live[1], live[0]
	}
	var sess *drinkers.Session
	for _, p := range live {
		if sess, err = s.arb.Submit(p, bottles); err == nil {
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

// serve gets a queued session its grant: on the spot, on the caller's
// goroutine, when its bottles are at hand (at the home, or surrendered by
// a live peer that has no session for them) — the pump is not involved
// and the home never turns hungry — and otherwise, reporting false, by
// making the home hungry for the meal that will collect them.
func (s *Server) serve(sess *drinkers.Session) (granted bool) {
	if s.arb.TryAtHand(sess) {
		return true
	}
	s.nw.SetNeeds(sess.Home, true)
	s.nw.Wake(sess.Home)
	s.nudge()
	return false
}

// Uptime returns time since Start (0 before Start).
func (s *Server) Uptime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.startAt.IsZero() {
		return 0
	}
	return time.Since(s.startAt)
}

// SetLeaseTap installs the lease-event observer (the replication hook).
// Must be set before Start and never changed after: the tap is read
// without synchronization on every lease mutation.
func (s *Server) SetLeaseTap(tap func(LeaseEvent)) { s.tap = tap }

// emit forwards a lease-table mutation to the tap, if any. Never called
// with s.mu held — a semi-synchronous tap blocks until the standby acks.
func (s *Server) emit(ev LeaseEvent) {
	if s.tap != nil {
		s.tap(ev)
	}
}

// Halt fail-stops the server: every subsequent API call is rejected
// with ErrHalted and Healthy reports false, but — unlike Stop — nothing
// is drained or torn down, so a "dead" primary keeps its goroutines and
// lease table exactly as a wedged process would. The supervisor promotes
// a standby in its place; the chaos harness and tests use Halt as the
// kill-primary switch. Halt is never cleared.
func (s *Server) Halt() {
	s.halted.Store(true)
	s.nudge()
}

// Halted reports whether the server was fail-stopped by Halt.
func (s *Server) Halted() bool { return s.halted.Load() }

// Healthy is the shard supervisor's liveness probe: false once the
// server is halted or draining.
func (s *Server) Healthy() bool {
	if s.halted.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// AdoptLease re-grants, under the lease's original session ID and
// deadline, a lease proven (replicated and unexpired) by a standby that
// is being promoted. Adoption runs on a fresh substrate whose arbiter
// holds nothing, and the adopted set is mutually conflict-free — the
// leases were held concurrently on the old primary, so their bottle
// sets are disjoint — which is why a bounded ctx suffices: every
// adoption is grantable without waiting on another lease, and — every
// worker of a fresh substrate being alive with nothing queued — granted
// at hand whichever end its bottles start at, before the substrate has
// eaten at all.
//
// The session counter embedded in the ID is folded into idCtr so the
// new primary can never mint a duplicate of an adopted ID.
//
//lint:lease acquire
func (s *Server) AdoptLease(ctx context.Context, id string, resources []string, deadline time.Time) error {
	if s.halted.Load() {
		return ErrHalted
	}
	sess, err := s.enqueue(resources)
	if err != nil {
		return err
	}
	home := sess.Home
	if !s.serve(sess) {
		select {
		case <-sess.Granted():
		case <-ctx.Done():
			if !s.arb.Cancel(sess) {
				s.arb.Release(sess)
			}
			s.nw.SetNeeds(home, s.arb.HasPending(home))
			s.nudge()
			return fmt.Errorf("%w: adoption of %s: %v", ErrTimeout, id, ctx.Err())
		case <-s.done:
			if !s.arb.Cancel(sess) {
				s.arb.Release(sess)
			}
			return ErrDraining
		}
	}
	if n, ok := sessionCounter(id); ok {
		for {
			cur := s.idCtr.Load()
			if cur >= n || s.idCtr.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	l := &lease{
		id:        id,
		sess:      sess,
		resources: append([]string(nil), resources...),
		home:      home,
		grantedAt: time.Now(),
		deadline:  deadline,
	}
	s.mu.Lock()
	s.leases[l.id] = l
	s.mu.Unlock()
	s.metrics.LeasesAdopted.Add(1)
	// Adoptions replicate as grants: to a surviving standby the adopted
	// lease is an idempotent upsert, so the stream doubles as the new
	// primary's state snapshot.
	s.emit(LeaseEvent{Op: ReplOpGrant, ID: l.id, Resources: l.resources, Deadline: l.deadline})
	return nil
}

// LeaseSnapshot returns the live lease table as grant events, sorted by
// lease ID (replay determinism). Promotion streams it to surviving
// standbys so they converge on the new primary's state.
func (s *Server) LeaseSnapshot() []LeaseEvent {
	s.mu.Lock()
	out := make([]LeaseEvent, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, LeaseEvent{
			Op:        ReplOpGrant,
			ID:        l.id,
			Resources: append([]string(nil), l.resources...),
			Deadline:  l.deadline,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// maxLeaseDeadline returns the latest deadline across live leases
// (zero when the table is empty) — the TTL-drain bound heartbeats
// advertise to standbys.
func (s *Server) maxLeaseDeadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max time.Time
	for _, l := range s.leases { //lint:sorted max over values is order-insensitive
		if l.deadline.After(max) {
			max = l.deadline
		}
	}
	return max
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

// Network exposes the underlying msgpass network (tests and status).
func (s *Server) Network() *msgpass.Network { return s.nw }

// Arbiter exposes the underlying session arbiter (tests and status).
func (s *Server) Arbiter() *drinkers.Arbiter { return s.arb }
