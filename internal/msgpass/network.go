package msgpass

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// actionNamed returns the ID of the algorithm's action with the given
// name, or -1 if it has none.
func actionNamed(alg core.Algorithm, name string) core.ActionID {
	for i, s := range alg.Actions() {
		if s.Name == name {
			return core.ActionID(i)
		}
	}
	return -1
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

// roster is the per-process control plane: the node handles and the
// atomic control flags node goroutines poll. It is replaced wholesale
// (copy-on-write) behind Network.procs so runtime membership
// (AddProcess) can extend it while node goroutines and controllers keep
// reading lock-free: elements are pointers, so an element's address is
// stable across growth, and a stale roster load still resolves every
// process that existed when it was taken.
type roster struct {
	nodes    []*node
	kill     []*atomic.Bool
	mal      []*atomic.Int32 // pending malicious window (steps)
	restart  []*atomic.Int32 // pending RestartMode (0 = none)
	needs    []*atomic.Bool  // dynamic needs():p, refreshed by nodes per event
	isolated []*atomic.Bool  // transiently partitioned nodes
	edgeOps  []*atomic.Bool  // hint: pending membership edge ops for p
}

// n returns the process count of this roster generation.
func (r *roster) n() int { return len(r.nodes) }

// grow returns a new roster with nd appended. Existing flag pointers are
// shared, so controllers holding the old roster still command the same
// processes.
func (r *roster) grow(nd *node) *roster {
	return &roster{
		nodes:    append(append([]*node(nil), r.nodes...), nd),
		kill:     append(append([]*atomic.Bool(nil), r.kill...), new(atomic.Bool)),
		mal:      append(append([]*atomic.Int32(nil), r.mal...), new(atomic.Int32)),
		restart:  append(append([]*atomic.Int32(nil), r.restart...), new(atomic.Int32)),
		needs:    append(append([]*atomic.Bool(nil), r.needs...), new(atomic.Bool)),
		isolated: append(append([]*atomic.Bool(nil), r.isolated...), new(atomic.Bool)),
		edgeOps:  append(append([]*atomic.Bool(nil), r.edgeOps...), new(atomic.Bool)),
	}
}

// Network assembles and runs a message-passing diners system.
type Network struct {
	cfg  Config
	wg   sync.WaitGroup
	done chan struct{}

	// lifeMu orders Start/Stop against membership goroutine spawns, so a
	// process added mid-run never races the final wg.Wait.
	lifeMu  sync.Mutex
	started bool // guarded by lifeMu
	stopped bool // guarded by lifeMu

	// driven marks a network owned by an external single-threaded driver
	// (see NewDriven): Start must not spawn the goroutine loop.
	driven bool
	// now is the network's clock. The goroutine runtime uses time.Now; a
	// deterministic driver substitutes a virtual clock so eating-session
	// intervals become exact, replayable instants.
	now func() time.Time

	// procs is the current process roster (copy-on-write; see roster).
	procs atomic.Pointer[roster]

	// d is the diameter constant D every node boots with. Runtime joins
	// inherit it: the paper treats D as a system-wide constant, so
	// membership assumes the configured bound still covers the grown
	// graph (detsim churn runs pass a generous DiameterOverride).
	d int

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

	// external marks a network whose frames ride an external transport
	// (TCP): runtime membership is disabled there, because the transport
	// pins one socket per static edge.
	external bool

	mu        sync.Mutex
	table     []Snapshot   // guarded by mu
	eats      []int64      // guarded by mu
	sessions  []EatSession // guarded by mu
	openSince []time.Time  // guarded by mu
	// garbagePending marks nodes with a garbage restart issued but no
	// session opened since; the next session they open carries the
	// EatSession.PostGarbage exemption. openPostGarbage carries that
	// mark from open to close. Both guarded by mu.
	garbagePending  []bool
	openPostGarbage []bool

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

	delayMu sync.Mutex
	delayed map[delayKey][]message // stalled channels' queued frames; guarded by delayMu

	// sendFrame, when non-nil, carries frames over an external transport
	// (e.g. TCP; see NewTCPNetwork) instead of the in-process channel
	// push. The transport calls inject on the receiving side. delayTicks
	// is only non-zero in driven mode, where the driver owns delays.
	sendFrame func(to graph.ProcID, m message, delayTicks int) bool
	// onStop tears the external transport down; it runs after the node
	// goroutines are signaled and before they are awaited, so blocked
	// transport reads unblock.
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
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	g := cfg.Graph
	nw := &Network{
		cfg:             cfg,
		now:             time.Now,
		done:            make(chan struct{}),
		table:           make([]Snapshot, g.N()),
		eats:            make([]int64, g.N()),
		openSince:       make([]time.Time, g.N()),
		garbagePending:  make([]bool, g.N()),
		openPostGarbage: make([]bool, g.N()),
		curAdj:          make(map[graph.Edge]bool, g.EdgeCount()),
		everAdj:         make(map[graph.Edge]bool, g.EdgeCount()),
		departed:        make([]bool, g.N()),
		nextEdgeID:      g.EdgeCount(),
		pendingOps:      make(map[graph.ProcID][]edgeOp),
		delayed:         make(map[delayKey][]message),
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
	ros := &roster{
		nodes:    make([]*node, g.N()),
		kill:     make([]*atomic.Bool, g.N()),
		mal:      make([]*atomic.Int32, g.N()),
		restart:  make([]*atomic.Int32, g.N()),
		needs:    make([]*atomic.Bool, g.N()),
		isolated: make([]*atomic.Bool, g.N()),
		edgeOps:  make([]*atomic.Bool, g.N()),
	}
	for p := 0; p < g.N(); p++ {
		ros.kill[p] = new(atomic.Bool)
		ros.mal[p] = new(atomic.Int32)
		ros.restart[p] = new(atomic.Int32)
		ros.needs[p] = new(atomic.Bool)
		ros.isolated[p] = new(atomic.Bool)
		ros.edgeOps[p] = new(atomic.Bool)
	}
	for p := 0; p < g.N(); p++ {
		pid := graph.ProcID(p)
		hungry := true
		if cfg.Hungry != nil {
			hungry = cfg.Hungry[p]
		}
		ros.needs[p].Store(hungry)
		nd := nw.newNode(pid, hungry, ros)
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

// newNode allocates node pid with its control-flag pointers taken from
// ros (which must already have slot pid).
func (nw *Network) newNode(pid graph.ProcID, hungry bool, ros *roster) *node {
	nd := &node{
		net:        nw,
		id:         pid,
		alg:        nw.cfg.Algorithm,
		enterID:    actionNamed(nw.cfg.Algorithm, "enter"),
		exitID:     actionNamed(nw.cfg.Algorithm, "exit"),
		numActions: len(nw.cfg.Algorithm.Actions()),
		state:      core.Thinking,
		hungry:     hungry,
		d:          nw.d,
		rng:        rand.New(rand.NewSource(nw.cfg.Seed + int64(pid)*7919)),
		inbox:      make(chan message, nw.cfg.InboxSize),
		wakeCh:     make(chan struct{}, 1),
		ctlKill:    ros.kill[pid],
		ctlMal:     ros.mal[pid],
		ctlRst:     ros.restart[pid],
		ctlNeed:    ros.needs[pid],
		ctlOps:     ros.edgeOps[pid],
	}
	nd.view.n = nd
	return nd
}

// InitArbitrary corrupts every node's variables, caches, and counters
// with domain-respecting garbage before Start — the message-passing
// equivalent of a transient fault hitting the whole system.
//
//lint:allow edgeownership fault injector: deliberately violates the write model, single-threaded before Start
func (nw *Network) InitArbitrary(seed int64) {
	nw.lifeMu.Lock()
	started := nw.started
	nw.lifeMu.Unlock()
	if started {
		panic("msgpass: InitArbitrary must precede Start")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range nw.procs.Load().nodes {
		nd.state = core.State(rng.Intn(3) + 1)
		nd.depth = rng.Intn(2*nd.d + 4)
		for i := range nd.edges {
			e := &nd.edges[i]
			e.counter = uint8(rng.Intn(kStates))
			e.peerCounter = uint8(rng.Intn(kStates))
			e.peerState = core.State(rng.Intn(3) + 1)
			e.peerDepth = rng.Intn(2*nd.d + 4)
			if rng.Intn(2) == 0 {
				e.priority = nd.id
			} else {
				e.priority = e.peer
			}
			e.pendingYield = rng.Intn(4) == 0
		}
	}
}

// Start launches one goroutine per node. It may be called once.
func (nw *Network) Start() {
	if nw.driven {
		panic("msgpass: a driven network is stepped by its driver, not Started")
	}
	nw.lifeMu.Lock()
	if nw.started {
		nw.lifeMu.Unlock()
		panic("msgpass: Start called twice")
	}
	nw.started = true
	for _, nd := range nw.procs.Load().nodes {
		nw.wg.Add(1)
		go nd.runGuarded()
	}
	nw.lifeMu.Unlock()
}

// runGuarded wraps run with the control-flag polling.
func (n *node) runGuarded() {
	defer n.net.wg.Done()
	ticker := time.NewTicker(n.net.cfg.TickEvery)
	defer ticker.Stop()
	n.gossipAll()
	for {
		select {
		case <-n.net.done:
			return
		case m := <-n.inbox:
			n.pollControl()
			n.receive(m)
		case <-ticker.C:
			n.pollControl()
			n.tick()
		case <-n.wakeCh:
			// Demand-driven event: run one event now so a fresh needs()
			// value is acted on at transport latency, not tick latency.
			// Gossip only on news — an unchanged node has nothing to
			// announce, and unconditional gossip here would turn a hot
			// demand source into a frame storm.
			n.pollControl()
			before := n.state
			n.onEvent()
			if n.announces(before) {
				n.gossipAll()
			}
		}
	}
}

// pollControl applies pending membership splices and kill /
// malicious-crash commands. Edge ops come first so a revival always
// reboots over the already-spliced edge set. Crashing (either way) ends
// any live eating session at that instant: the frozen or garbage E value
// a dead process leaves behind is a corrupted variable, not an eating
// session, and the safety property exempts it ("two neighbors eat
// together only if both are dead").
func (n *node) pollControl() {
	if n.ctlOps.Load() && n.ctlOps.Swap(false) {
		n.applyEdgeOps()
	}
	if v := n.ctlRst.Swap(0); v != 0 {
		n.applyRestart(RestartMode(v))
	}
	if n.ctlKill.Load() && !n.dead {
		n.dead = true
		n.net.closeOpenSession(n.id)
		n.publish()
	}
	if v := n.ctlMal.Swap(0); v > 0 && !n.dead && n.malSteps == 0 {
		n.malSteps = int(v)
		n.net.closeOpenSession(n.id)
	}
}

// Stop terminates all node goroutines and waits for them.
func (nw *Network) Stop() {
	nw.lifeMu.Lock()
	if !nw.started || nw.stopped {
		nw.lifeMu.Unlock()
		return
	}
	nw.stopped = true
	nw.lifeMu.Unlock()
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
	now := nw.now()
	for p, since := range nw.openSince {
		if !since.IsZero() {
			nw.sessions = append(nw.sessions, EatSession{Proc: graph.ProcID(p), Start: since, End: now, PostGarbage: nw.openPostGarbage[p]})
			nw.openSince[p] = time.Time{}
			nw.openPostGarbage[p] = false
		}
	}
}

// Kill benignly crashes node p: it halts at its next event.
func (nw *Network) Kill(p graph.ProcID) { nw.procs.Load().kill[p].Store(true) }

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
	ros := nw.procs.Load()
	ros.kill[p].Store(false)
	ros.mal[p].Store(0)
	if mode == RestartArbitrary {
		nw.mu.Lock()
		nw.garbagePending[p] = true
		nw.mu.Unlock()
	}
	ros.restart[p].Store(int32(mode))
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
func (nw *Network) SetNeeds(p graph.ProcID, hungry bool) { nw.procs.Load().needs[p].Store(hungry) }

// Wake schedules an immediate extra event for node p, so a needs()
// change just written with SetNeeds is acted on now instead of at p's
// next gossip tick. Demand sources (the lock service) call it on the
// grant path. In an idle neighborhood it is the first link of a chain
// with no clock in it: the woken node turns Hungry and gossips at once,
// each neighbor holding a token answers that frame with the handover
// (see node.receive), and the node enters on the frame that completes its
// set — hungry → eating costs one frame round trip, whatever TickEvery
// is. A neighbor that has eaten within the last tick period answers on
// its tick instead. Wakes coalesce (capacity-1 channel) and are a no-op
// on a driven network, whose driver owns all event scheduling. Safe to
// call from any goroutine.
func (nw *Network) Wake(p graph.ProcID) {
	select {
	case nw.procs.Load().nodes[p].wakeCh <- struct{}{}:
	default:
	}
}

// Needs returns the currently requested needs():p value.
func (nw *Network) Needs(p graph.ProcID) bool { return nw.procs.Load().needs[p].Load() }

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
	nw.procs.Load().isolated[p].Store(isolated)
}

// CrashMaliciously gives node p a window of arbitrarySteps garbage events
// before it halts.
func (nw *Network) CrashMaliciously(p graph.ProcID, arbitrarySteps int) {
	if arbitrarySteps <= 0 {
		nw.Kill(p)
		return
	}
	nw.procs.Load().mal[p].Store(int32(arbitrarySteps))
}

// deliver routes a frame to p's inbox without blocking; overflow drops
// the frame (the periodic gossip retransmits all protocol state), and the
// configured loss rate drops frames at random, which the protocol must
// likewise absorb.
func (nw *Network) deliver(p graph.ProcID, m message) {
	nw.sent.Add(1)
	ros := nw.procs.Load()
	if ros.isolated[p].Load() || ros.isolated[m.from].Load() {
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
	nw.transmitNow(p, m)
}

// inject pushes a frame into p's inbox without blocking; overflow drops
// the frame. External transports call this on the receiving side.
func (nw *Network) inject(p graph.ProcID, m message) {
	select {
	case nw.procs.Load().nodes[p].inbox <- m:
	default:
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
// hook (outside the lock).
func (nw *Network) publish(p graph.ProcID, s core.State, depth int, dead bool, events, inc int64) {
	nw.mu.Lock()
	snap := Snapshot{
		State:       s,
		Depth:       depth,
		Dead:        dead,
		Events:      events,
		Eats:        nw.eats[p],
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
	if since := nw.openSince[p]; !since.IsZero() {
		nw.sessions = append(nw.sessions, EatSession{Proc: p, Start: since, End: nw.now(), PostGarbage: nw.openPostGarbage[p]})
		nw.openSince[p] = time.Time{}
		nw.openPostGarbage[p] = false
	}
}

// recordEatStart opens an eating session for p. The first session after
// a garbage restart inherits the PostGarbage exemption (see EatSession).
func (nw *Network) recordEatStart(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.openSince[p] = nw.now()
	nw.openPostGarbage[p] = nw.garbagePending[p]
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
	since := nw.openSince[p]
	if since.IsZero() {
		return
	}
	nw.eats[p]++
	nw.sessions = append(nw.sessions, EatSession{Proc: p, Start: since, End: nw.now(), PostGarbage: nw.openPostGarbage[p]})
	nw.openSince[p] = time.Time{}
	nw.openPostGarbage[p] = false
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
	return append([]int64(nil), nw.eats...)
}

// Sessions returns all completed eating sessions.
func (nw *Network) Sessions() []EatSession {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]EatSession(nil), nw.sessions...)
}

// MessagesSent returns the total frames sent (including dropped).
func (nw *Network) MessagesSent() int64 { return nw.sent.Load() }

// MessagesDropped returns frames dropped to full inboxes.
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
// flagged PostGarbage are exempt: a garbage-restarted node's first meal
// sits inside the stabilization window, where the paper promises
// convergence, not exclusion.
func (nw *Network) OverlappingNeighborSessions() []string {
	sessions := nw.Sessions()
	ever := nw.everAdjSnapshot()
	var bad []string
	for i := 0; i < len(sessions); i++ {
		for j := i + 1; j < len(sessions); j++ {
			a, b := sessions[i], sessions[j]
			if a.Proc == b.Proc || !ever[graph.EdgeBetween(a.Proc, b.Proc)] {
				continue
			}
			if a.PostGarbage || b.PostGarbage {
				continue
			}
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				bad = append(bad, fmt.Sprintf("%d@[%v,%v] overlaps %d@[%v,%v]",
					a.Proc, a.Start, a.End, b.Proc, b.Start, b.End))
			}
		}
	}
	return bad
}
