package msgpass

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// algActions is what a node needs of its algorithm's action list. The
// engine attaches the token-atomicity rule and the eating dwell to the
// actions named "enter" and "exit" (-1 if absent), whatever the
// algorithm. Actions() builds a fresh slice per call, far too hot for
// act()'s per-event guard sweep and wasted on every node a network
// builds, so a network resolves it once (resolveActions) and its nodes
// share the result.
type algActions struct {
	enter, exit core.ActionID
	count       int
}

func resolveActions(alg core.Algorithm) algActions {
	acts := alg.Actions()
	r := algActions{enter: -1, exit: -1, count: len(acts)}
	for i, s := range acts {
		switch {
		case s.Name == "enter" && r.enter < 0:
			r.enter = core.ActionID(i)
		case s.Name == "exit" && r.exit < 0:
			r.exit = core.ActionID(i)
		}
	}
	return r
}

// Snapshot is one node's externally observable state at publish time.
type Snapshot struct {
	// State and Depth mirror the node's variables.
	State core.State
	Depth int
	// Dead reports whether the node has halted.
	Dead bool
	// Events counts the node's processed events.
	Events int64
	// Eats counts completed eating sessions.
	Eats int64
	// Incarnation counts the node's restarts: 0 for the original boot,
	// incremented every time Restart revives the node. External
	// controllers fence state tied to an older incarnation.
	Incarnation int64
}

// RestartMode selects the state a revived node boots with.
type RestartMode int

const (
	// RestartClean revives the node in the legitimate initial state
	// (Thinking, depth zero, zeroed edge caches). The peers' caches
	// still disagree, so even a clean restart leans on stabilization.
	RestartClean RestartMode = iota + 1
	// RestartArbitrary revives the node with InitArbitrary-style
	// domain-respecting garbage — a malicious recovery, converging only
	// because the protocol stabilizes.
	RestartArbitrary
)

// String names the mode for traces and status displays.
func (m RestartMode) String() string {
	if m == RestartArbitrary {
		return "arbitrary"
	}
	return "clean"
}

// roster is the process list. It is replaced wholesale (copy-on-write)
// behind Network.procs so runtime membership (AddProcess) can extend it
// while the event loop and controllers keep reading lock-free: elements
// are pointers, so a stale roster load still resolves every process
// that existed when it was taken.
type roster struct {
	nodes []*node
}

// n returns the process count of this roster generation.
func (r *roster) n() int { return len(r.nodes) }

// control is one process's control plane: the flags controllers set from
// any goroutine and the node polls at each step.
type control struct {
	kill     atomic.Bool
	mal      atomic.Int32 // pending malicious window (steps)
	restart  atomic.Int32 // pending RestartMode (0 = none)
	needs    atomic.Bool  // dynamic needs():p, refreshed by the node per event
	isolated atomic.Bool  // transiently partitioned
	edgeOps  atomic.Bool  // hint: pending membership edge ops
}

// ctl returns process p's control flags.
func (nw *Network) ctl(p graph.ProcID) *control { return &nw.procs.Load().nodes[p].ctl }

// Network assembles and runs a message-passing diners system.
type Network struct {
	cfg  Config
	wg   sync.WaitGroup
	done chan struct{}

	started, stopped atomic.Bool

	// driven marks a network owned by an external single-threaded driver
	// (see NewDriven): Start must not launch the event loop.
	driven bool
	// now is the network's clock. The event loop uses time.Now; a
	// deterministic driver substitutes a virtual clock so eating-session
	// intervals become exact, replayable instants.
	now func() time.Time
	// out collects the frames node logic emits during one step, for the
	// stepper (the event loop or a driver) to take. Only the goroutine
	// stepping nodes touches it.
	out []Frame
	// in is the event loop's intake from other goroutines: frames from
	// transport readers and pending Wakes.
	in intake

	// procs is the current process roster (copy-on-write; see roster).
	procs atomic.Pointer[roster]

	// d is the diameter constant D every node boots with. Runtime joins
	// inherit it: the paper treats D as a system-wide constant, so
	// membership assumes the configured bound still covers the grown
	// graph (detsim churn runs pass a generous DiameterOverride).
	d int
	// acts is the algorithm's action list as every node uses it.
	acts algActions

	// Membership state. curGraph is the live topology, replaced wholesale
	// on every splice so readers get an immutable graph lock-free;
	// everything else is guarded by memMu. Lock order: memMu before mu.
	memMu      sync.Mutex
	curGraph   atomic.Pointer[graph.Graph]
	curAdj     map[graph.Edge]bool       // guarded by memMu
	everAdj    map[graph.Edge]bool       // guarded by memMu
	departed   []bool                    // guarded by memMu
	nextEdgeID int                       // guarded by memMu
	pendingOps map[graph.ProcID][]edgeOp // guarded by memMu

	mu    sync.Mutex
	table []Snapshot // guarded by mu
	meals meals      // guarded by mu
	// garbagePending marks nodes with a garbage restart issued but no
	// session opened since; the next session they open carries the
	// EatSession.PostGarbage exemption. Guarded by mu.
	garbagePending []bool

	sent    atomic.Int64
	dropped atomic.Int64
	lost    atomic.Int64
	lossCtr atomic.Uint64

	restarts         atomic.Int64
	reconnects       atomic.Int64
	faultsDropped    atomic.Int64
	faultsDuplicated atomic.Int64
	faultsCorrupted  atomic.Int64
	faultsDelayed    atomic.Int64

	joins  atomic.Int64
	leaves atomic.Int64

	// transport, when non-nil, carries frames the event loop releases
	// over an external transport (e.g. TCP; see NewTCPNetwork) instead of
	// the loop's own queue. The transport calls inject on the receiving
	// side. It pins one socket per static edge, so it also disables
	// runtime membership.
	transport func(to graph.ProcID, m message) bool
	// onStop tears the external transport down; it runs after the event
	// loop is signaled and before it and the transport's readers are
	// awaited, so blocked transport reads unblock.
	onStop func()
	// onRestart lets the transport react to a node revival (the TCP
	// transport severs the node's sockets so its edges reconnect).
	onRestart func(p graph.ProcID)
}

// NewNetwork builds a network in the legitimate initial state (all
// Thinking, depth zero, lower-ID endpoints holding priority and tokens).
func NewNetwork(cfg Config) *Network {
	if cfg.Graph == nil {
		panic("msgpass: Config.Graph is required")
	}
	if cfg.Algorithm == nil {
		panic("msgpass: Config.Algorithm is required")
	}
	if cfg.EatEvents <= 0 {
		cfg.EatEvents = 2
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = time.Millisecond
	}
	g := cfg.Graph
	nw := &Network{
		cfg:            cfg,
		now:            time.Now,
		done:           make(chan struct{}),
		table:          make([]Snapshot, g.N()),
		meals:          newMeals(g.N()),
		garbagePending: make([]bool, g.N()),
		curAdj:         make(map[graph.Edge]bool, g.EdgeCount()),
		everAdj:        make(map[graph.Edge]bool, g.EdgeCount()),
		departed:       make([]bool, g.N()),
		nextEdgeID:     g.EdgeCount(),
		pendingOps:     make(map[graph.ProcID][]edgeOp),
		in:             intake{kick: make(chan struct{}, 1)},
	}
	nw.curGraph.Store(g)
	for _, e := range g.Edges() {
		nw.curAdj[e] = true
		nw.everAdj[e] = true
	}
	d := g.Diameter()
	if cfg.DiameterOverride > 0 {
		d = cfg.DiameterOverride
	}
	nw.d = d
	nw.acts = resolveActions(cfg.Algorithm)
	ros := &roster{nodes: make([]*node, g.N())}
	for p := 0; p < g.N(); p++ {
		pid := graph.ProcID(p)
		hungry := true
		if cfg.Hungry != nil {
			hungry = cfg.Hungry[p]
		}
		nd := nw.newNode(pid, hungry)
		nbrs := g.Neighbors(pid)
		idxs := g.IncidentEdgeIndices(pid)
		nd.edges = make([]edgeState, len(nbrs))
		for i, q := range nbrs {
			e := g.Edges()[idxs[i]]
			nd.edges[i] = edgeState{
				idx:       idxs[i],
				peer:      q,
				low:       pid == e.A,
				peerState: core.Thinking,
				priority:  e.A, // lower ID is the ancestor initially
				heard:     true,
			}
		}
		nd.refreshNeighbors()
		ros.nodes[p] = nd
		nw.table[p] = Snapshot{State: core.Thinking}
	}
	nw.procs.Store(ros)
	return nw
}

// newNode allocates node pid.
func (nw *Network) newNode(pid graph.ProcID, hungry bool) *node {
	nd := &node{
		net:    nw,
		id:     pid,
		alg:    nw.cfg.Algorithm,
		acts:   nw.acts,
		state:  core.Thinking,
		hungry: hungry,
		d:      nw.d,
	}
	nd.view.n = nd
	nd.ctl.needs.Store(hungry)
	return nd
}

// InitArbitrary corrupts every node's variables, caches, and counters
// with domain-respecting garbage before Start — the message-passing
// equivalent of a transient fault hitting the whole system.
func (nw *Network) InitArbitrary(seed int64) {
	if nw.started.Load() {
		panic("msgpass: InitArbitrary must precede Start")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range nw.procs.Load().nodes {
		nd.scramble(rng)
	}
}

// Start launches the network's event loop: one goroutine that steps
// every node, processes added later included, through Driven's
// primitives on a wall clock (see run). It may be called once.
func (nw *Network) Start() {
	if nw.driven {
		panic("msgpass: a driven network is stepped by its driver, not Started")
	}
	if !nw.started.CompareAndSwap(false, true) {
		panic("msgpass: Start called twice")
	}
	nw.wg.Add(1)
	go nw.run()
}

// pollControl applies pending membership splices and kill /
// malicious-crash commands. Edge ops come first so a revival always
// reboots over the already-spliced edge set. Crashing (either way) ends
// any live eating session at that instant: the frozen or garbage E value
// a dead process leaves behind is a corrupted variable, not an eating
// session, and the safety property exempts it ("two neighbors eat
// together only if both are dead").
func (n *node) pollControl() {
	if n.ctl.edgeOps.Load() && n.ctl.edgeOps.Swap(false) {
		n.applyEdgeOps()
	}
	if v := n.ctl.restart.Swap(0); v != 0 {
		n.applyRestart(RestartMode(v))
	}
	if n.ctl.kill.Load() && !n.dead {
		n.dead = true
		n.net.closeOpenSession(n.id)
		n.publish()
	}
	if v := n.ctl.mal.Swap(0); v > 0 && !n.dead && n.malSteps == 0 {
		n.malSteps = int(v)
		n.net.closeOpenSession(n.id)
	}
}

// Stop terminates the event loop and the transport's goroutines and
// waits for them.
func (nw *Network) Stop() {
	if !nw.started.Load() || !nw.stopped.CompareAndSwap(false, true) {
		return
	}
	close(nw.done)
	if nw.onStop != nil {
		nw.onStop()
	}
	nw.wg.Wait()
	nw.finishSessions()
}

// finishSessions closes any eating session left open so interval checks
// see it.
func (nw *Network) finishSessions() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.closeAll(nw.now())
}

// Kill benignly crashes node p: it halts at its next event.
func (nw *Network) Kill(p graph.ProcID) { nw.ctl(p).kill.Store(true) }

// Halting reports whether node p has a kill or revival command it has
// not yet polled. Control flags apply lazily at the node's next event,
// so between the command and that event its variables are a corpse —
// frozen by a departure, or about to be rebooted — not a live protocol
// state, and its incarnation is ending.
func (nw *Network) Halting(p graph.ProcID) bool {
	c := nw.ctl(p)
	return c.kill.Load() || c.restart.Load() != 0
}

// Restart revives node p at its next event — the inverse of Kill the
// paper's recovery story needs. The node reboots into a new incarnation
// with either the legitimate initial state (RestartClean) or arbitrary
// garbage (RestartArbitrary); either way its neighbors' caches disagree
// with it, and stabilization is what re-converges the system. Pending
// kill and malicious-crash commands are cancelled; an external
// transport is told to reconnect the node's edges. Restarting a live
// node is a reboot; restarting a departed node is a no-op — a process
// spliced out of the conflict graph has no edges to reboot onto, and
// only JoinProcess may bring it back. Safe to call from any goroutine.
func (nw *Network) Restart(p graph.ProcID, mode RestartMode) {
	if nw.Departed(p) {
		return
	}
	if mode != RestartArbitrary {
		mode = RestartClean
	}
	c := nw.ctl(p)
	c.kill.Store(false)
	c.mal.Store(0)
	if mode == RestartArbitrary {
		nw.mu.Lock()
		nw.garbagePending[p] = true
		nw.mu.Unlock()
	}
	c.restart.Store(int32(mode))
	nw.restarts.Add(1)
	if nw.onRestart != nil {
		nw.onRestart(p)
	}
}

// Restarts returns how many node restarts were requested.
func (nw *Network) Restarts() int64 { return nw.restarts.Load() }

// Reconnects returns how many transport edge connections were
// re-established (TCP transport only; in-process edges never drop).
func (nw *Network) Reconnects() int64 { return nw.reconnects.Load() }

// FaultsInjected returns the injected-fault counters: frames dropped,
// duplicated, corrupted, and delayed by the configured FaultInjector.
func (nw *Network) FaultsInjected() (dropped, duplicated, corrupted, delayed int64) {
	return nw.faultsDropped.Load(), nw.faultsDuplicated.Load(),
		nw.faultsCorrupted.Load(), nw.faultsDelayed.Load()
}

// SetNeeds dynamically sets needs():p — whether node p currently wants to
// eat. It is safe to call from any goroutine at any time; the node picks
// the new value up at its next event, so within one atomic event the
// guard evaluations still agree (the paper lets needs() "evaluate to true
// arbitrarily"). This is the control surface external demand sources
// (e.g. the lock service) use to turn client requests into hunger.
func (nw *Network) SetNeeds(p graph.ProcID, hungry bool) { nw.ctl(p).needs.Store(hungry) }

// Wake schedules an immediate extra event for node p, so a needs()
// change just written with SetNeeds is acted on now instead of at p's
// next gossip tick. Demand sources (the lock service) call it on the
// grant path. In an idle neighborhood it is the first link of a chain
// with no clock in it: the woken node turns Hungry and gossips at once,
// each neighbor holding a token answers that frame with the handover
// (see node.receive), and the node enters on the frame that completes its
// set — hungry → eating costs one frame round trip, whatever TickEvery
// is. A neighbor that has eaten within the last tick period answers on
// its tick instead. Wake only marks p pending for the event loop, so
// wakes coalesce and never block, from any goroutine or from the loop
// itself (an OnSnapshot hook). On a driven network it is a no-op.
func (nw *Network) Wake(p graph.ProcID) {
	if !nw.driven {
		nw.in.wake(p)
	}
}

// Needs returns the currently requested needs():p value.
func (nw *Network) Needs(p graph.ProcID) bool { return nw.ctl(p).needs.Load() }

// Graph returns the network's current topology. With runtime membership
// the returned graph is an immutable generation: splices install a new
// one, so a held reference stays internally consistent.
func (nw *Network) Graph() *graph.Graph { return nw.curGraph.Load() }

// N returns the current process count, including departed (retired)
// processes, whose IDs are never reused.
func (nw *Network) N() int { return nw.procs.Load().n() }

// Snapshot returns node p's latest published snapshot.
func (nw *Network) Snapshot(p graph.ProcID) Snapshot {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.table[p]
}

// SetPartitioned transiently isolates node p: while set, every frame to
// or from p is lost in transit (the node itself keeps running). Because
// every frame is full-state gossip, healing the partition lets the
// protocol resynchronize without any special recovery path — the
// stabilization property doing its job at the transport level.
func (nw *Network) SetPartitioned(p graph.ProcID, isolated bool) {
	nw.ctl(p).isolated.Store(isolated)
}

// CrashMaliciously gives node p a window of arbitrarySteps garbage events
// before it halts.
func (nw *Network) CrashMaliciously(p graph.ProcID, arbitrarySteps int) {
	if arbitrarySteps <= 0 {
		nw.Kill(p)
		return
	}
	nw.ctl(p).mal.Store(int32(arbitrarySteps))
}

// deliver puts a frame to p on the wire: partitions and the configured
// loss rate drop it at random (the periodic gossip retransmits all
// protocol state, so the protocol absorbs it), the fault injector may
// mangle it, and what survives is emitted for the stepper to carry.
func (nw *Network) deliver(p graph.ProcID, m message) {
	nw.sent.Add(1)
	if nw.ctl(p).isolated.Load() || nw.ctl(m.from).isolated.Load() {
		nw.lost.Add(1) // partitioned: the frame is lost in transit
		return
	}
	if r := nw.cfg.LossRate; r > 0 {
		h := splitmix(uint64(nw.cfg.Seed) ^ nw.lossCtr.Add(1)*0x9e3779b97f4a7c15)
		if float64(h>>11)/float64(1<<53) < r {
			nw.lost.Add(1)
			return
		}
	}
	if nw.cfg.Faults != nil {
		nw.applyFaults(p, m)
		return
	}
	nw.transmit(p, m, 0)
}

// inject hands a frame an external transport received for p to the
// event loop without blocking; past the loop's queue bound the frame is
// dropped. Transport readers call this on the receiving side.
func (nw *Network) inject(p graph.ProcID, m message) {
	if !nw.in.push(Frame{To: p, From: m.from, m: m}, nw.queueLimit()) {
		nw.dropped.Add(1)
	}
}

// splitmix is the splitmix64 finalizer, giving deliver a cheap
// thread-safe random stream.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// publish records a node's observable state and notifies the snapshot
// hook (outside the lock, on the stepping goroutine).
func (nw *Network) publish(p graph.ProcID, s core.State, depth int, dead bool, events, inc int64) {
	nw.mu.Lock()
	snap := Snapshot{
		State:       s,
		Depth:       depth,
		Dead:        dead,
		Events:      events,
		Eats:        nw.meals.eats[p],
		Incarnation: inc,
	}
	nw.table[p] = snap
	nw.mu.Unlock()
	if nw.cfg.OnSnapshot != nil {
		nw.cfg.OnSnapshot(p, snap)
	}
}

// closeOpenSession ends p's eating session (if any) at the current
// instant without counting it as a completed meal.
func (nw *Network) closeOpenSession(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.close(p, nw.now(), false)
}

// recordEatStart opens an eating session for p. The first session after
// a garbage restart inherits the PostGarbage exemption (see EatSession).
func (nw *Network) recordEatStart(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.open(p, nw.now(), nw.garbagePending[p])
	nw.garbagePending[p] = false
}

// recordEatEnd closes p's eating session and counts it. Exiting Eating
// with no session open means the node never legitimately entered — it
// booted or restarted into a garbage Eating state (InitArbitrary,
// RestartArbitrary) — so there is no meal to count and no interval to
// record; fabricating one from a stale eatStart would charge a
// pre-crash incarnation's timestamp to the new one.
func (nw *Network) recordEatEnd(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.close(p, nw.now(), true)
}

// Table returns a copy of the current snapshot table.
func (nw *Network) Table() []Snapshot {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([]Snapshot, len(nw.table))
	copy(out, nw.table)
	return out
}

// Eats returns completed eating sessions per node.
func (nw *Network) Eats() []int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]int64(nil), nw.meals.eats...)
}

// Sessions returns all completed eating sessions.
func (nw *Network) Sessions() []EatSession {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]EatSession(nil), nw.meals.sessions...)
}

// MessagesSent returns the total frames sent (including dropped).
func (nw *Network) MessagesSent() int64 { return nw.sent.Load() }

// MessagesDropped returns frames dropped past the event loop's queue
// bound.
func (nw *Network) MessagesDropped() int64 { return nw.dropped.Load() }

// MessagesLost returns frames dropped by the configured loss rate.
func (nw *Network) MessagesLost() int64 { return nw.lost.Load() }

// OverlappingNeighborSessions returns pairs of completed sessions by
// neighboring nodes whose intervals overlap — safety violations of the
// message-passing system. Adjacency is judged against the union of every
// topology generation the run saw: an edge that existed at any point
// makes the pair neighbors for the check, so membership churn cannot
// hide a violation behind a later splice-out. (No spurious positives:
// two sessions can only overlap while their edge exists, because a
// departing node's edges vanish only once it is dead and a joining
// node's first meal waits for the token its incumbent holds.) Sessions
// flagged PostGarbage are exempt (see overlaps).
func (nw *Network) OverlappingNeighborSessions() []string {
	return overlaps(nw.Sessions(), nw.everEdges())
}
