package msgpass

import (
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/graph"
)

// This file implements the classic Chandy & Misra hygienic
// dining-philosophers protocol over FIFO channels — the fork-collection route
// to message passing that the paper's Section 4 calls cumbersome and
// that Tsay & Bagrodia and Sivilotti et al. follow. It serves as the
// message-passing baseline for experiment E8: correct and frugal when
// nothing fails, but neither stabilizing nor failure-local — a crashed
// fork holder starves its neighbors forever, and waiting chains grow
// without bound.
//
// Per edge: one fork (clean or dirty) and one request token, at opposite
// endpoints initially. A hungry philosopher uses request tokens to ask
// for missing forks; a holder surrenders a requested fork iff the fork
// is dirty and it is not eating (cleaning it in transit); eating dirties
// every fork; deferred requests are honored on exit. Forks start dirty
// at the lower-ID endpoint, so the precedence graph is acyclic.

// forkKind tags a fork-protocol frame.
type forkKind uint8

const (
	forkTransfer forkKind = iota + 1
	forkRequest
)

// forkMsg is one frame of the fork protocol.
type forkMsg struct {
	edgeIdx int
	from    graph.ProcID
	kind    forkKind
}

// forkEdge is one philosopher's view of an incident edge.
//
//lint:edgestate
type forkEdge struct {
	idx  int
	peer graph.ProcID

	haveFork  bool
	dirty     bool
	haveToken bool // the request token
	reqSent   bool // we have asked and not yet been served
	deferred  bool // peer asked while we could not surrender
}

// forkNode is one philosopher of the Chandy-Misra runtime.
type forkNode struct {
	net *ForkNetwork
	id  graph.ProcID

	state        uint8 // 0 thinking-ish (always hungry), 1 eating
	eatRemaining int
	edges        []forkEdge
	dead         bool
}

// ForkNetwork runs Chandy-Misra hygienic diners on one event loop.
type ForkNetwork struct {
	g        *graph.Graph
	wg       sync.WaitGroup
	done     chan struct{}
	started  bool
	stopped  bool
	nodes    []*forkNode
	killFlag []atomic.Bool

	eatEvents int
	tick      time.Duration

	// driven and the pluggable clock mirror Network's driven mode (see
	// NewForkDriven): a deterministic driver substitutes its virtual
	// clock.
	driven bool
	now    func() time.Time
	// out collects the frames emitted during one step for the stepper
	// (the event loop or a driver) to take.
	out []ForkFrame

	mu    sync.Mutex
	meals meals // guarded by mu

	sent atomic.Int64
}

// ForkConfig tunes a ForkNetwork.
type ForkConfig struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// EatEvents is the eating dwell in node events (default 2).
	EatEvents int
	// TickEvery is the node self-check period (default 1ms).
	TickEvery time.Duration
}

// NewForkNetwork builds the classic runtime in its legitimate initial
// state (all forks dirty at the lower-ID endpoints).
func NewForkNetwork(cfg ForkConfig) *ForkNetwork {
	if cfg.Graph == nil {
		panic("msgpass: ForkConfig.Graph is required")
	}
	if cfg.EatEvents <= 0 {
		cfg.EatEvents = 2
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = time.Millisecond
	}
	g := cfg.Graph
	nw := &ForkNetwork{
		g:         g,
		now:       time.Now,
		done:      make(chan struct{}),
		meals:     newMeals(g.N()),
		killFlag:  make([]atomic.Bool, g.N()),
		eatEvents: cfg.EatEvents,
		tick:      cfg.TickEvery,
	}
	nw.nodes = make([]*forkNode, g.N())
	for p := 0; p < g.N(); p++ {
		pid := graph.ProcID(p)
		nd := &forkNode{net: nw, id: pid}
		nbrs := g.Neighbors(pid)
		idxs := g.IncidentEdgeIndices(pid)
		nd.edges = make([]forkEdge, len(nbrs))
		for i, q := range nbrs {
			e := g.Edges()[idxs[i]]
			low := pid == e.A
			nd.edges[i] = forkEdge{
				idx:       idxs[i],
				peer:      q,
				haveFork:  low, // fork starts dirty at the low endpoint
				dirty:     true,
				haveToken: !low, // the request token at the other side
			}
		}
		nw.nodes[p] = nd
	}
	return nw
}

// Start launches the event loop (see run).
func (nw *ForkNetwork) Start() {
	if nw.driven {
		panic("msgpass: a driven ForkNetwork is stepped by its driver, not Started")
	}
	if nw.started {
		panic("msgpass: ForkNetwork.Start called twice")
	}
	nw.started = true
	nw.wg.Add(1)
	go nw.run()
}

// run is the wall-clock driver of ForkDriven's primitives in detsim's
// fair-round shape: each period every philosopher ticks, then the frames
// sent so far are delivered in send order (FIFO per channel), and what
// the deliveries send waits for the next period.
func (nw *ForkNetwork) run() {
	defer nw.wg.Done()
	d := &ForkDriven{nw: nw}
	t := time.NewTicker(nw.tick)
	defer t.Stop()
	var queue []ForkFrame
	for {
		select {
		case <-nw.done:
			return
		case <-t.C:
		}
		for p := range nw.nodes {
			queue = append(queue, d.Tick(graph.ProcID(p))...)
		}
		round := queue
		queue = nil
		for _, f := range round {
			queue = append(queue, d.Deliver(f)...)
		}
	}
}

// Stop terminates and waits for the event loop.
func (nw *ForkNetwork) Stop() {
	if !nw.started || nw.stopped {
		return
	}
	nw.stopped = true
	close(nw.done)
	nw.wg.Wait()
	nw.finishSessions()
}

// finishSessions closes any eating session left open so interval checks
// see it.
func (nw *ForkNetwork) finishSessions() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.closeAll(nw.now())
}

// Kill benignly crashes philosopher p (it halts at its next event,
// keeping whatever forks it holds — the classic algorithm has no answer
// to this, which is the point of the baseline).
func (nw *ForkNetwork) Kill(p graph.ProcID) { nw.killFlag[p].Store(true) }

// Eats returns completed meals per philosopher.
func (nw *ForkNetwork) Eats() []int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]int64(nil), nw.meals.eats...)
}

// Sessions returns completed eating sessions.
func (nw *ForkNetwork) Sessions() []EatSession {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]EatSession(nil), nw.meals.sessions...)
}

// MessagesSent counts protocol frames.
func (nw *ForkNetwork) MessagesSent() int64 { return nw.sent.Load() }

// OverlappingNeighborSessions returns overlapping neighbor meals (safety
// violations).
func (nw *ForkNetwork) OverlappingNeighborSessions() []string {
	return overlaps(nw.Sessions(), nw.g.Edges())
}

func (n *forkNode) poll() {
	if n.net.killFlag[n.id].Load() {
		n.dead = true
	}
}

func (n *forkNode) handle(m forkMsg) {
	if n.dead {
		return
	}
	for i := range n.edges {
		e := &n.edges[i]
		if e.idx != m.edgeIdx || e.peer != m.from {
			continue
		}
		switch m.kind {
		case forkTransfer:
			e.haveFork = true
			e.dirty = false
			e.reqSent = false
		case forkRequest:
			e.haveToken = true
			// Surrender iff the fork is dirty and we are not eating;
			// otherwise defer until exit.
			if n.state != 1 && e.haveFork && e.dirty {
				n.sendFork(e)
			} else {
				e.deferred = true
			}
		}
		return
	}
}

// act advances the philosopher: request missing forks, start or finish
// eating, honor deferred requests.
func (n *forkNode) act() {
	if n.dead {
		return
	}
	if n.state == 1 {
		if n.eatRemaining > 0 {
			n.eatRemaining--
			return
		}
		// Exit: all forks dirty; honor deferred requests. The session
		// closes before any fork leaves: the instant a fork is sent a
		// neighbor may receive it and open its own session, and a close
		// stamped after that would overlap it.
		n.state = 0
		n.net.recordEnd(n.id)
		for i := range n.edges {
			e := &n.edges[i]
			e.dirty = true
			if e.deferred && e.haveFork {
				n.sendFork(e)
			}
		}
		return
	}
	// Hungry (always): request every missing fork we can, check for a
	// full set.
	all := true
	for i := range n.edges {
		e := &n.edges[i]
		if e.haveFork {
			continue
		}
		all = false
		if e.haveToken && !e.reqSent {
			e.haveToken = false
			e.reqSent = true
			n.send(e.peer, forkMsg{edgeIdx: e.idx, from: n.id, kind: forkRequest})
		}
	}
	if all {
		n.state = 1
		n.eatRemaining = n.net.eatEvents
		n.net.recordStart(n.id)
	}
}

// sendFork cleans and transfers the fork on e, clearing the deferral.
func (n *forkNode) sendFork(e *forkEdge) {
	e.haveFork = false
	e.dirty = false
	e.deferred = false
	n.send(e.peer, forkMsg{edgeIdx: e.idx, from: n.id, kind: forkTransfer})
}

// send emits a frame for the stepper to carry. CM relies on reliable
// channels, so no frame is ever dropped; the queue stays small because
// each edge carries at most one fork and one request in flight.
func (n *forkNode) send(to graph.ProcID, m forkMsg) {
	n.net.sent.Add(1)
	n.net.out = append(n.net.out, ForkFrame{To: to, From: m.from, m: m})
}

func (nw *ForkNetwork) recordStart(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.open(p, nw.now(), false)
}

func (nw *ForkNetwork) recordEnd(p graph.ProcID) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.meals.close(p, nw.now(), true)
}
