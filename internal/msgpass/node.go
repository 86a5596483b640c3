package msgpass

import (
	"math/rand"
	"sync/atomic"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// edgeState is a node's view of one incident edge.
//
//lint:edgestate
type edgeState struct {
	idx  int          // edge index in the graph
	peer graph.ProcID // the other endpoint
	low  bool         // we are the lower-ID endpoint

	counter     uint8 // our K-state counter
	peerCounter uint8 // freshest counter heard from the peer

	peerState core.State // freshest peer dining state heard
	peerDepth int        // freshest peer depth heard

	priority     graph.ProcID // our belief of the edge priority holder
	pendingYield bool         // yield requested while not holding

	// heard is false after a clean restart until the first frame from the
	// peer re-syncs the token pair. The K-state parity test below is only
	// meaningful against a peerCounter actually heard from the peer: a
	// zeroed cache would make the low endpoint "hold" every edge, letting
	// a freshly rebooted node forge tokens over a live neighbor's meal.
	heard bool
}

// holds reports whether this endpoint currently holds the edge token. A
// node that has not heard its peer since rebooting holds nothing: it
// cannot tell parity from forgery, so it abstains until handle() syncs.
func (e *edgeState) holds() bool {
	if !e.heard {
		return false
	}
	if e.low {
		return e.counter == e.peerCounter
	}
	return e.counter != e.peerCounter
}

// senderHeld reports whether a message with the given counter was sent by
// a then-holder of the token (evaluated against our counter).
func (e *edgeState) senderHeld(counter uint8) bool {
	if e.low {
		// Peer is the high endpoint: it holds iff its counter differs
		// from ours.
		return counter != e.counter
	}
	return counter == e.counter
}

// pass hands the token over by advancing our counter (Dijkstra K-state
// two-machine move). The caller must currently hold.
func (e *edgeState) pass() {
	if e.low {
		e.counter = (e.counter + 1) % kStates
	} else {
		e.counter = e.peerCounter
	}
}

// node is one philosopher goroutine's state. All fields are owned by the
// node's goroutine; the Network reads published snapshots instead.
type node struct {
	net *Network
	id  graph.ProcID
	alg core.Algorithm

	// enterID/exitID are the algorithm's actions named "enter"/"exit"
	// (-1 if absent); the engine attaches the token-atomicity rule and
	// the eating dwell to them regardless of the algorithm.
	enterID core.ActionID
	exitID  core.ActionID
	// numActions caches len(alg.Actions()): Actions() builds a fresh
	// slice per call, far too hot for act()'s per-event guard sweep.
	numActions int
	// view is the node's reusable core.View/Effects adapter; taking its
	// address never escapes to the heap (the node is already there).
	view nodeView

	state  core.State
	depth  int
	hungry bool
	d      int

	edges  []edgeState    // sorted by peer; spliced by membership ops
	nbrs   []graph.ProcID // peer IDs of edges, kept in sync by refreshNeighbors
	events int64

	eatRemaining int // events left before exit becomes eligible
	linger       int // own ticks left before requests are answered between ticks again

	dead     bool
	malSteps int   // > 0: malicious window
	inc      int64 // incarnation: restarts survived
	rng      *rand.Rand

	inbox chan message
	// wakeCh coalesces demand-driven wake requests (Network.Wake): a
	// pending token means "run one event now instead of waiting for the
	// tick". Capacity 1; wakes are level-triggered, not counted.
	wakeCh chan struct{}

	// ctl* are this node's control-flag cells, shared with the roster.
	// The pointers are set at construction and never change, so the node
	// polls them without loading the (copy-on-write) roster.
	ctlKill *atomic.Bool
	ctlMal  *atomic.Int32
	ctlRst  *atomic.Int32
	ctlNeed *atomic.Bool
	ctlOps  *atomic.Bool
}

// refreshNeighbors rebuilds the cached neighbor list from the edge set.
func (n *node) refreshNeighbors() {
	n.nbrs = make([]graph.ProcID, len(n.edges))
	for i := range n.edges {
		n.nbrs[i] = n.edges[i].peer
	}
}

// applyEdgeOps drains and applies pending membership splices on the
// node's own goroutine, keeping the edge set sorted by peer. A splice-in
// for an existing peer replaces the edge (leave→join collapses in one
// poll); a splice-out for an unknown peer is a stale no-op.
func (n *node) applyEdgeOps() {
	ops := n.net.takeEdgeOps(n.id)
	if len(ops) == 0 {
		return
	}
	for _, op := range ops {
		at := -1
		for i := range n.edges {
			if n.edges[i].peer == op.peer {
				at = i
				break
			}
		}
		switch {
		case op.remove && at >= 0:
			n.edges = append(n.edges[:at], n.edges[at+1:]...)
		case !op.remove && at >= 0:
			n.edges[at] = op.es
		case !op.remove && at < 0:
			pos := len(n.edges)
			for i := range n.edges {
				if n.edges[i].peer > op.peer {
					pos = i
					break
				}
			}
			n.edges = append(n.edges, edgeState{})
			copy(n.edges[pos+1:], n.edges[pos:])
			n.edges[pos] = op.es
		}
	}
	n.refreshNeighbors()
	n.publish()
}

// lingerTicks is how many of its own ticks a node lets pass after a meal
// before it answers requests between ticks again: the tick that ends the
// period the meal fell in, and one full period after it.
const lingerTicks = 2

// receive is the inbox arm of the event loop: it runs the frame's event
// through handle and then answers at transport latency what an idle
// neighborhood can answer, instead of leaving it to the next gossip tick:
//
//   - a node the event turned Hungry announces it on all edges, as the
//     wake arm would have (a frame can slip in between SetNeeds and Wake);
//   - a node that has not eaten for a full tick period hands over a held
//     token the frame made grantable on the edge it arrived on (the peer
//     just announced hunger).
//
// Everything else rides the periodic tick as before: a frame that changed
// nothing, lost frames, stabilization from garbage — and every handover
// out of a node that has just eaten (linger > 0). The last is what keeps a
// loaded neighborhood on the tick's clock. Without it tokens rotate as
// fast as the CPU runs the event loops: throughput under load doubles,
// but it is then bound by the CPU alone, costs all of it, and moves with
// every change in the machine's speed (EXPERIMENTS.md E29). An idle
// holder — the case where a lone grant used to wait 1.3-1.6 ms for
// nothing — still answers at once.
//
// Neither answer can echo: a handover reply needs token possession, which
// the reply itself gives away, and two Thinking endpoints never bounce a
// token because shouldGrant demands a Hungry or Eating peer; the
// announcement needs a real Thinking → Hungry transition. A dead node
// answers nothing, and a node inside its malicious window has already
// emitted its garbage for this event.
func (n *node) receive(m message) {
	before, malicious := n.state, n.malSteps > 0
	e := n.handle(m)
	switch {
	case e == nil || malicious:
	case before == core.Thinking && n.state != core.Thinking:
		n.gossipAll()
	case n.linger == 0 && e.holds() && n.shouldGrant(e):
		n.gossipEdge(e)
	}
}

// tick is the ticker arm of the event loop: one event, the full gossip
// that carries retransmission, stabilization and every handover a busy
// neighborhood makes, and one tick off the post-meal linger.
func (n *node) tick() {
	n.onEvent()
	n.gossipAll()
	if n.linger > 0 {
		n.linger--
	}
}

// announces reports whether the wake arm's event, which began in state
// before, must be gossiped now rather than at the next tick: it moved the
// node into or out of Thinking. That is the only fact about a neighbor's
// state any decision here reads — join, leave and enter test "ancestor is
// Thinking", shouldGrant tests "peer is not Thinking", and enter's
// "no descendant Eating" is implied by holding the descendant's token —
// so Hungry → Eating is news to nobody and waits for the tick. The
// comparison spans the whole event, so join/leave flapping inside one
// event announces nothing.
func (n *node) announces(before core.State) bool {
	return (before == core.Thinking) != (n.state == core.Thinking)
}

// handle processes one incoming frame: it folds the frame into the edge's
// caches and runs one event. It returns the edge the frame arrived on, or
// nil for a frame that was ignored (dead receiver, stray edge index).
func (n *node) handle(m message) *edgeState {
	if n.dead {
		return nil // a dead process reads nothing, does nothing
	}
	e := n.edgeByIdx(m.edgeIdx)
	if e == nil || m.from != e.peer {
		return nil // stray frame (garbage storms, or a pre-splice generation)
	}
	if !e.heard {
		// First frame since a clean reboot: the peer's word is the only
		// truth about this edge. Adopt its view wholesale and pick the
		// counter that does NOT hold the token (low differs from the peer,
		// high matches it), so the token regenerates at the live peer and
		// reaches us only by an explicit grant.
		e.heard = true
		e.peerCounter = m.counter
		if e.low {
			e.counter = (m.counter + 1) % kStates
		} else {
			e.counter = m.counter
		}
		if m.priority == n.id || m.priority == e.peer {
			e.priority = m.priority
		}
		if m.state.Valid() {
			e.peerState = m.state
		}
		if m.depth >= 0 {
			e.peerDepth = m.depth
		}
		n.onEvent()
		return e
	}
	// A receiver adopts the priority belief only from a frame whose
	// counters prove authority: either the sender still holds the token,
	// or this very frame hands the token over (the passer's final word —
	// a pass advances the counter before sending, so the plain holder
	// test would wrongly dismiss it).
	heldBefore := e.holds()
	senderHolds := e.senderHeld(m.counter)
	e.peerCounter = m.counter
	handover := !heldBefore && e.holds()
	if (senderHolds || handover) && (m.priority == n.id || m.priority == e.peer) {
		e.priority = m.priority
	}
	if m.state.Valid() {
		e.peerState = m.state
	}
	if m.depth >= 0 {
		e.peerDepth = m.depth
	}
	n.onEvent()
	return e
}

// onEvent advances the node: malicious windows emit garbage, live nodes
// apply pending yields, run enabled actions, and account eating time.
func (n *node) onEvent() {
	if n.dead {
		return
	}
	n.events++
	// Refresh dynamic hunger once per event so all guard evaluations of
	// this event agree on needs():p.
	n.hungry = n.ctlNeed.Load()
	if n.malSteps > 0 {
		n.maliciousStep()
		return
	}
	if n.state == core.Eating && n.eatRemaining > 0 {
		n.eatRemaining--
	}
	n.applyPendingYields()
	n.act()
	n.publish()
}

// act executes enabled actions (bounded per event) against the node's
// caches. The enter action carries the engine-level atomicity rule: it
// fires only while every incident token is held.
func (n *node) act() {
	for round := 0; round < 4; round++ {
		executed := false
		for a := 0; a < n.numActions; a++ {
			id := core.ActionID(a)
			if !n.alg.Enabled(&n.view, id) {
				continue
			}
			if id == n.enterID && !n.holdsAll() {
				continue
			}
			if id == n.exitID && n.state == core.Eating && n.eatRemaining > 0 {
				continue // dwell: eating spans a few events
			}
			before := n.state
			n.alg.Apply(&n.view, id)
			executed = true
			if n.state == core.Eating && before != core.Eating {
				n.eatRemaining = n.net.cfg.EatEvents
				n.net.recordEatStart(n.id)
			}
			if before == core.Eating && n.state != core.Eating {
				n.net.recordEatEnd(n.id)
				n.linger = lingerTicks
			}
			if n.state != before {
				n.applyPendingYields()
				// No gossip from inside the action loop: the event-loop
				// arm that ran this event compares the dining state
				// before and after the whole event and gossips at most
				// once (see receive, announces). One gossip per action
				// would turn intra-event churn — join/leave flapping, an
				// exit/fixdepth cycle — into a frame burst each.
			}
		}
		if !executed {
			return
		}
	}
}

// holdsAll reports whether the node holds every incident token.
func (n *node) holdsAll() bool {
	for i := range n.edges {
		if !n.edges[i].holds() {
			return false
		}
	}
	return true
}

// applyPendingYields applies buffered exit-yields on edges we now hold.
func (n *node) applyPendingYields() {
	for i := range n.edges {
		e := &n.edges[i]
		if e.pendingYield && e.holds() {
			e.priority = e.peer
			e.pendingYield = false
		}
	}
}

// gossipAll sends the node's current frame on every edge, passing tokens
// it holds and does not retain.
func (n *node) gossipAll() {
	if n.dead {
		return
	}
	for i := range n.edges {
		n.gossipEdge(&n.edges[i])
	}
}

// gossipEdge sends the current frame on one edge. Tokens move on demand,
// not on every round: the holder keeps the token by default and grants it
// when the peer's gossiped hunger asks for it (see shouldGrant). Frames
// themselves flow every tick regardless, carrying state/depth/priority,
// and between ticks whenever receive finds something to answer.
func (n *node) gossipEdge(e *edgeState) {
	if n.dead {
		return
	}
	if e.holds() && n.shouldGrant(e) {
		if e.pendingYield {
			e.priority = e.peer
			e.pendingYield = false
		}
		e.pass()
	}
	n.send(e, message{
		edgeIdx:  e.idx,
		from:     n.id,
		counter:  e.counter,
		state:    n.state,
		depth:    n.depth,
		priority: e.priority,
	})
}

// shouldGrant decides whether a held token is handed to the peer. The
// peer's hunger is its (gossiped) request for the token; the edge
// priority arbitrates between two hungry endpoints. An eating node never
// grants — held tokens are exactly what makes eating exclusive. Keeping
// the token from a thinking peer is always safe: the peer will request by
// becoming hungry, which it gossips the moment it happens. This mirrors the
// shared-memory semantics: a process waits only on its ancestors, so a
// hungry descendant can never block an ancestor by hoarding.
func (n *node) shouldGrant(e *edgeState) bool {
	if n.state == core.Eating {
		return false
	}
	if e.peerState != core.Hungry && e.peerState != core.Eating {
		return false
	}
	if n.state != core.Hungry {
		return true // we don't compete: grant to whoever wants it
	}
	return e.priority == e.peer // both compete: the ancestor wins
}

// send delivers a frame without ever blocking the event loop: a full peer
// inbox drops the frame, which the periodic gossip retransmits.
func (n *node) send(e *edgeState, m message) {
	n.net.deliver(e.peer, m)
}

// maliciousStep emits one garbage frame per edge with arbitrary counters,
// states, depths, and priorities, then counts the window down; at zero the
// node halts for good.
func (n *node) maliciousStep() {
	for i := range n.edges {
		e := &n.edges[i]
		garbage := message{
			edgeIdx:  e.idx,
			from:     n.id,
			counter:  uint8(n.rng.Intn(kStates)),
			state:    core.State(n.rng.Intn(3) + 1),
			depth:    n.rng.Intn(2*n.d + 4),
			priority: [2]graph.ProcID{n.id, e.peer}[n.rng.Intn(2)],
		}
		// The malicious node also corrupts its own variables.
		e.counter = garbage.counter
		e.priority = garbage.priority
		n.send(e, garbage)
	}
	n.state = core.State(n.rng.Intn(3) + 1)
	n.depth = n.rng.Intn(2*n.d + 4)
	n.malSteps--
	if n.malSteps <= 0 {
		n.dead = true
	}
	n.publish()
}

// publish pushes the node's externally observable state to the network's
// snapshot table.
func (n *node) publish() {
	n.net.publish(n.id, n.state, n.depth, n.dead, n.events, n.inc)
}

// applyRestart reboots the node into a fresh incarnation: clean mode
// re-enters the legitimate initial per-node state, arbitrary mode boots
// with domain-respecting garbage (the recovery analogue of
// InitArbitrary). Either way the peers' caches still describe the old
// incarnation, so convergence is stabilization's job, not a handshake's.
// Runs on the node's own goroutine (via pollControl), preserving the
// rule that only the owner writes node state.
func (n *node) applyRestart(mode RestartMode) {
	n.net.closeOpenSession(n.id)
	n.dead = false
	n.malSteps = 0
	n.inc++
	n.eatRemaining = 0
	n.linger = 0
	if mode == RestartArbitrary {
		n.state = core.State(n.rng.Intn(3) + 1)
		n.depth = n.rng.Intn(2*n.d + 4)
		for i := range n.edges {
			e := &n.edges[i]
			e.counter = uint8(n.rng.Intn(kStates))
			e.peerCounter = uint8(n.rng.Intn(kStates))
			e.peerState = core.State(n.rng.Intn(3) + 1)
			e.peerDepth = n.rng.Intn(2*n.d + 4)
			if n.rng.Intn(2) == 0 {
				e.priority = n.id
			} else {
				e.priority = e.peer
			}
			e.pendingYield = n.rng.Intn(4) == 0
			e.heard = true // arbitrary state is arbitrary: no humility owed
		}
	} else {
		// Clean means humble, not factory-fresh: the boot-time convention
		// (lower ID holds the tokens and the priority) assumed everyone
		// starts together. A lone reboot into a live system must not
		// reassert it — zeroed counters make the low endpoint "hold" every
		// edge, forging tokens over a neighbor's legitimate meal. Instead
		// the node yields priority, marks each edge unheard (holding
		// nothing), and lets the first frame from each live peer re-sync
		// the pair. Worst case it waits one meal per edge.
		n.state = core.Thinking
		n.depth = 0
		for i := range n.edges {
			e := &n.edges[i]
			e.counter = 0
			e.peerCounter = 0
			e.peerState = core.Thinking
			e.peerDepth = 0
			e.priority = e.peer
			e.pendingYield = false
			e.heard = false
		}
	}
	n.publish()
	n.gossipAll() // announce the revival without waiting for the tick
}

// edgeByIdx locates the incident edge with the given graph edge index.
func (n *node) edgeByIdx(idx int) *edgeState {
	for i := range n.edges {
		if n.edges[i].idx == idx {
			return &n.edges[i]
		}
	}
	return nil
}

// nodeView adapts a node's caches to core.View / core.Effects.
type nodeView struct {
	n *node
}

var _ core.Effects = (*nodeView)(nil)

func (v *nodeView) ID() graph.ProcID { return v.n.id }

func (v *nodeView) Needs() bool { return v.n.hungry }

func (v *nodeView) State() core.State { return v.n.state }

func (v *nodeView) Depth() int { return v.n.depth }

func (v *nodeView) Diameter() int { return v.n.d }

func (v *nodeView) Neighbors() []graph.ProcID {
	return v.n.nbrs
}

func (v *nodeView) NeighborState(q graph.ProcID) core.State {
	return v.n.edgeTo(q).peerState
}

// NeighborDepth reports the freshest depth heard from q — except across
// an edge with a yield pending, which contributes no depth at all. In the
// paper exit writes priority.p.q := q atomically, so after an exit p has
// no descendants and fixdepth has nothing to copy. Here the write waits
// for the edge token (see YieldTo), and a token pinned by a dead holder
// never arrives: the corpse would stay p's "descendant" forever, every
// event would re-run fixdepth → exit against its frozen garbage depth,
// and p would gossip depth > D for good — which p's own ancestors then
// inherit, carrying the damage past distance 1. -1 is below every
// depth.p, so fixdepth's guard (depth.p < depth.q + 1) is false for it.
func (v *nodeView) NeighborDepth(q graph.ProcID) int {
	e := v.n.edgeTo(q)
	if e.pendingYield {
		return -1
	}
	return e.peerDepth
}

func (v *nodeView) HasPriority(q graph.ProcID) bool {
	return v.n.edgeTo(q).priority == q
}

func (v *nodeView) SetState(s core.State) { v.n.state = s }

func (v *nodeView) SetDepth(d int) { v.n.depth = d }

// YieldTo records the yield; it takes effect on the edge the moment the
// node holds its token (immediately if it already does).
func (v *nodeView) YieldTo(q graph.ProcID) {
	e := v.n.edgeTo(q)
	if e.holds() {
		e.priority = q
		e.pendingYield = false
		return
	}
	e.pendingYield = true
}

func (n *node) edgeTo(q graph.ProcID) *edgeState {
	if e := n.edgeToOrNil(q); e != nil {
		return e
	}
	panic("msgpass: no edge to neighbor")
}

// edgeToOrNil locates the incident edge to peer q, or nil if the node
// has none (not adjacent, or the splice has not been polled yet).
func (n *node) edgeToOrNil(q graph.ProcID) *edgeState {
	for i := range n.edges {
		if n.edges[i].peer == q {
			return &n.edges[i]
		}
	}
	return nil
}
