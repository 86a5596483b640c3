package lockservice

import (
	"context"
	"errors"
	"fmt"
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

// Server is one in-process shard: the wall-clock shell around its
// ShardCore — the diners network's event loop, the lease janitor,
// waits, drain, halt, metrics and the replication tap. Create with
// NewServer, then Start; clients reach it through a Router, which owns
// the HTTP and wire surfaces.
type Server struct {
	cfg     Config
	g       *graph.Graph
	core    *ShardCore
	nw      *msgpass.Network
	metrics *Metrics
	fams    stats.Families

	done chan struct{}
	wg   sync.WaitGroup

	eating []bool // per worker: last published live and Eating; OnSnapshot's own

	mu       sync.Mutex //lint:order rank lockservice 20
	draining bool       // guarded by mu
	started  bool       // guarded by mu
	startAt  time.Time  // guarded by mu

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

// withDefaults fills in every unset field NewServer and NewShardCore
// default.
func (cfg Config) withDefaults() Config {
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
	return cfg
}

// NewServer builds a server; it does not start any goroutines.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		g:       cfg.Graph,
		metrics: NewMetrics(),
		done:    make(chan struct{}),
		eating:  make([]bool, cfg.Graph.N()),
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
			// A live worker entering Eating opens the window meal-backed
			// grants need, so the loop pumps right here. Every other change
			// a grant can wait on pumps at its own call site, so later
			// publishes of an open window have nothing new to offer.
			eating := snap.State == core.Eating && !snap.Dead
			if eating && !s.eating[p] {
				s.core.Pump()
			}
			s.eating[p] = eating
		},
	})
	s.core = NewShardCore(cfg, s.nw)
	s.fams.Register(s.families)
	return s
}

// Graph returns the worker topology.
func (s *Server) Graph() *graph.Graph { return s.g }

// Mapper returns the server's resource mapper.
func (s *Server) Mapper() *ResourceMapper { return s.core.mapper }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start launches the diners network's event loop, which also runs the
// grant pump (see OnSnapshot in NewServer), and the lease janitor. It
// may be called once.
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
	s.wg.Add(1)
	go s.janitor()
	if s.cfg.Supervise != nil {
		s.wg.Add(1)
		go s.superviseLoop()
	}
}

// janitor expires leases past their TTL. Each expiry is counted and
// streamed before the pump that may grant its freed resources to a
// waiter, so no caller sees that grant ahead of the expiry behind it.
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
		evs := s.core.Expire(time.Now())
		for _, ev := range evs {
			s.metrics.Expirations.Add(1)
			s.emit(ev)
		}
		if len(evs) > 0 {
			s.core.Pump()
		}
	}
}

// Acquire blocks until the resource set is granted, the context or the
// server's wait budget expires, or the server drains. The lease lives
// for ShardCore.TTL(ttl).
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
	sess, err := s.core.Enqueue(resources)
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
	start := time.Now()
	if !s.core.Serve(sess) {
		if err := s.await(ctx, sess); err != nil {
			return nil, err
		}
	}
	// One clock reading is the end of the wait, the lease's grant time and
	// the base of its deadline.
	now := time.Now()
	wait := now.Sub(start)
	ev := s.core.Grant(sess, resources, ttl, now)
	if haltedAfterGrant(s) {
		// Halt landed between the grant and its publication: swallow the
		// lease rather than hand out a grant the promoted successor never
		// saw (the replication tap below has not run yet). A lease the
		// janitor took meanwhile is gone already.
		_, _, _ = s.core.Release(ev.ID, now)
		return nil, ErrHalted
	}
	// Replicate before the client sees the grant: any client-visible
	// lease was offered to the standbys first (semi-synchronous taps
	// block here until acked or degraded).
	s.emit(ev)
	s.metrics.Grants.Add(1)
	s.metrics.WaitHist.Observe(wait.Seconds())
	return &Grant{SessionID: ev.ID, Node: sess.Home, Resources: ev.Resources, Wait: wait}, nil
}

// haltedAfterGrant is Acquire's post-insert halt check. The mutation
// test swaps it for one that never sees the halt.
var haltedAfterGrant = (*Server).Halted

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
		s.core.Withdraw(sess)
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
	ev, held, err := s.core.Release(sessionID, time.Now())
	if err != nil {
		return err
	}
	s.metrics.Releases.Add(1)
	s.metrics.HoldHist.Observe(held.Seconds())
	s.emit(ev)
	return nil
}

// Renew extends a live lease's TTL from now, by ShardCore.TTL(ttl),
// and returns the granted lifetime; ErrNotFound when the lease expired,
// was fenced — however recently renewed — or never existed.
//
//lint:lease renew
func (s *Server) Renew(sessionID string, ttl time.Duration) (time.Duration, error) {
	if s.halted.Load() {
		return 0, ErrHalted
	}
	ev, granted, err := s.core.Renew(sessionID, ttl, time.Now())
	if err != nil {
		return 0, err
	}
	s.metrics.Renewals.Add(1)
	s.emit(ev)
	return granted, nil
}

// ActiveLeases returns the number of live leases.
func (s *Server) ActiveLeases() int { return s.core.ActiveLeases() }

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
	s.core.Pump()
	return nil
}

// RestartNode revives a worker, clean or with arbitrary garbage state,
// after fencing the leases its ending incarnation backed
// (ShardCore.Restart), and returns how many it fenced.
func (s *Server) RestartNode(node graph.ProcID, mode msgpass.RestartMode) (int, error) {
	if node < 0 || int(node) >= s.g.N() {
		return 0, fmt.Errorf("lockservice: node %d out of range [0,%d)", node, s.g.N())
	}
	if s.Departed(node) {
		return 0, fmt.Errorf("%w: node %d (use join to readmit)", ErrDeparted, node)
	}
	fenced := s.fenced(s.core.Restart(node, mode))
	s.metrics.NodeRestarts.Add(1)
	return fenced, nil
}

// fenced counts and publishes a fence's events and returns how many
// leases it revoked.
func (s *Server) fenced(evs []LeaseEvent) int {
	for _, ev := range evs {
		s.metrics.LeasesFenced.Add(1)
		s.emit(ev)
	}
	return len(evs)
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
	evs, err := s.core.Leave(node)
	if err != nil {
		return 0, err
	}
	fenced := s.fenced(evs)
	s.metrics.NodeLeaves.Add(1)
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
	s.core.Pump()
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
		if s.core.ActiveLeases() == 0 || ctx.Err() != nil {
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
// kill-primary switch. Halt is never cleared, touches neither arbiter
// nor substrate, and may be called from an arbiter hook.
func (s *Server) Halt() { s.halted.Store(true) }

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
// is being promoted (ShardCore.Adopt). Adoption runs on a fresh
// substrate whose arbiter holds nothing, and the adopted set is mutually
// conflict-free — the leases were held concurrently on the old primary —
// so every adoption is granted at hand, before the substrate has eaten
// at all, and a bounded ctx suffices.
//
//lint:lease acquire
func (s *Server) AdoptLease(ctx context.Context, id string, resources []string, deadline time.Time) error {
	if s.halted.Load() {
		return ErrHalted
	}
	sess, err := s.core.Enqueue(resources)
	if err != nil {
		return err
	}
	if !s.core.Serve(sess) {
		if err := s.await(ctx, sess); err != nil {
			return fmt.Errorf("adoption of %s: %w", id, err)
		}
	}
	ev := s.core.Adopt(sess, id, resources, deadline, time.Now())
	s.metrics.LeasesAdopted.Add(1)
	// Adoptions replicate as grants: to a surviving standby the adopted
	// lease is an idempotent upsert, so the stream doubles as the new
	// primary's state snapshot.
	s.emit(ev)
	return nil
}

// Network exposes the underlying msgpass network (tests and status).
func (s *Server) Network() *msgpass.Network { return s.nw }

// Arbiter exposes the underlying session arbiter (tests and status).
func (s *Server) Arbiter() *drinkers.Arbiter { return s.core.arb }
