// Runtime membership: splicing processes into and out of the running
// conflict graph.
//
// The paper's algorithm runs on a fixed graph; what makes live joins
// safe here is that a fresh edge is initialized by the same humble rule
// a clean reboot uses (PR 4): the joining endpoint comes up unheard —
// holding nothing — and syncs its K-state counter to the non-holding
// value on the first frame it hears from the peer, while the incumbent
// endpoint starts heard with zeroed counters and the edge priority on
// itself. Exactly one token therefore exists (or regenerates, within
// one frame round-trip) per new edge, always on the incumbent side, so
// a join can never forge token parity over a live neighbor's meal.
//
// Process IDs stay dense and are never reused: RemoveProcess retires a
// vertex in place (edges spliced out, node halted, ID parked) rather
// than renumbering, so frames, snapshots, and per-process accounting
// stay stable across generations. Frame edge indices are never reused
// either, and they name one generation of an edge, not the vertex pair:
// every splice-in allocates a fresh index, also when the same two
// processes were adjacent before. A frame sent on the edge's previous
// generation and still in flight across a leave → rejoin therefore
// matches no live edge and dies at handle()'s stray-frame check. With a
// reused index it would be accepted on the re-created edge, and its
// pre-leave K-state counter — meaningless against the new generation's
// zeroed pair — can read as a token handover: a forged token, and two
// neighbors eating together.
package msgpass

import (
	"errors"
	"fmt"
	"sort"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// edgeOp is one pending splice on a node's incident edge set. Ops are
// queued by the membership layer under memMu and applied at the owning
// node's next step (pollControl), preserving the rule that only the
// stepper writes its edge state.
type edgeOp struct {
	remove bool
	peer   graph.ProcID
	es     edgeState // fully initialized state for splice-ins
}

// ErrExternalTransport reports a membership call on a TCP-backed
// network, where every edge is pinned to a socket at construction.
var ErrExternalTransport = errors.New("msgpass: runtime membership requires the in-process transport")

// Departed reports whether p has been spliced out of the conflict graph
// by RemoveProcess (and not readmitted by JoinProcess).
func (nw *Network) Departed(p graph.ProcID) bool {
	nw.memMu.Lock()
	defer nw.memMu.Unlock()
	return int(p) >= 0 && int(p) < len(nw.departed) && nw.departed[p]
}

// Joins returns how many processes were spliced in (AddProcess and
// JoinProcess combined); Leaves how many were spliced out.
func (nw *Network) Joins() int64  { return nw.joins.Load() }
func (nw *Network) Leaves() int64 { return nw.leaves.Load() }

// AddProcess splices a brand-new process into the running conflict
// graph, adjacent to the given existing processes, and returns its ID
// (always the next dense ID; IDs are never reused). The new process
// boots humble on every edge — unheard, holding nothing — while each
// incumbent endpoint starts with the edge priority and the (sole)
// token, so the join cannot disturb any meal in progress. The node
// inherits the network-wide diameter constant D; callers growing the
// graph beyond the configured bound should have passed a generous
// DiameterOverride up front. A running event loop ticks the new process
// from its next period on, like every other (a driver steps it
// explicitly). Safe to call from any goroutine.
func (nw *Network) AddProcess(neighbors []graph.ProcID) (graph.ProcID, error) {
	if nw.transport != nil {
		return 0, ErrExternalTransport
	}
	nw.memMu.Lock()
	ros := nw.procs.Load()
	pid := graph.ProcID(ros.n())
	nbrs, err := nw.checkPeersLocked(pid, neighbors)
	if err != nil {
		nw.memMu.Unlock()
		return 0, err
	}
	hungry := nw.cfg.Hungry == nil // explicit hunger maps leave joiners to SetNeeds
	nd := nw.newNode(pid, hungry)
	nd.edges = make([]edgeState, 0, len(nbrs))
	for _, q := range nbrs {
		joiner, incumbent := nw.spliceEdgeLocked(pid, q)
		nd.edges = append(nd.edges, joiner)
		nw.queueOpLocked(q, edgeOp{peer: pid, es: incumbent})
	}
	nd.refreshNeighbors()
	nw.departed = append(nw.departed, false)
	nw.growAccountingLocked()
	nw.procs.Store(&roster{nodes: append(append([]*node(nil), ros.nodes...), nd)})
	nw.rebuildGraphLocked(ros.n() + 1)
	nw.memMu.Unlock()
	nw.joins.Add(1)
	return pid, nil
}

// RemoveProcess splices p out of the conflict graph: p halts for good,
// its neighbors drop their shared edges (freeing any waiter blocked on
// a token p held — the displaced waiter then eats on its remaining
// edges), and the vertex is retired in place. Only JoinProcess can
// bring p back; Kill/Restart on a departed process are no-ops. Safe to
// call from any goroutine.
func (nw *Network) RemoveProcess(p graph.ProcID) error {
	if nw.transport != nil {
		return ErrExternalTransport
	}
	nw.memMu.Lock()
	ros := nw.procs.Load()
	if int(p) < 0 || int(p) >= ros.n() {
		nw.memMu.Unlock()
		return fmt.Errorf("msgpass: no process %d", p)
	}
	if nw.departed[p] {
		nw.memMu.Unlock()
		return fmt.Errorf("msgpass: process %d already departed", p)
	}
	nw.departed[p] = true
	for _, q := range nw.curGraph.Load().Neighbors(p) {
		delete(nw.curAdj, graph.EdgeBetween(p, q))
		nw.queueOpLocked(q, edgeOp{remove: true, peer: p})
		nw.queueOpLocked(p, edgeOp{remove: true, peer: q})
	}
	// Cancel pending revivals, then halt: a departed vertex stays down.
	c := nw.ctl(p)
	c.restart.Store(0)
	c.mal.Store(0)
	c.kill.Store(true)
	nw.rebuildGraphLocked(ros.n())
	nw.memMu.Unlock()
	// The departure is effective NOW — the edges are already gone — but
	// the kill is applied lazily at p's next poll. Close any open eating
	// session at the splice instant, or the corpse interval would
	// spuriously overlap the first meal of a waiter the leave just freed.
	nw.closeOpenSession(p)
	nw.leaves.Add(1)
	return nil
}

// JoinProcess readmits a departed process p with the given neighbor
// set (often its old one — a rejoin after a leave). The edges splice in
// under the same asymmetric humble rule as AddProcess, and p itself
// revives through the clean-restart path, so it reboots humble over
// the freshly spliced edge set. Safe to call from any goroutine.
func (nw *Network) JoinProcess(p graph.ProcID, neighbors []graph.ProcID) error {
	if nw.transport != nil {
		return ErrExternalTransport
	}
	nw.memMu.Lock()
	ros := nw.procs.Load()
	if int(p) < 0 || int(p) >= ros.n() {
		nw.memMu.Unlock()
		return fmt.Errorf("msgpass: no process %d", p)
	}
	if !nw.departed[p] {
		nw.memMu.Unlock()
		return fmt.Errorf("msgpass: process %d has not departed", p)
	}
	nbrs, err := nw.checkPeersLocked(p, neighbors)
	if err != nil {
		nw.memMu.Unlock()
		return err
	}
	nw.departed[p] = false
	for _, q := range nbrs {
		joiner, incumbent := nw.spliceEdgeLocked(p, q)
		nw.queueOpLocked(p, edgeOp{peer: q, es: joiner})
		nw.queueOpLocked(q, edgeOp{peer: p, es: incumbent})
	}
	// Revive through the normal humble-reboot path. applyRestart runs
	// after the edge ops in the same pollControl pass, so the clean
	// reboot covers the new edge set.
	c := nw.ctl(p)
	c.kill.Store(false)
	c.mal.Store(0)
	c.restart.Store(int32(RestartClean))
	nw.rebuildGraphLocked(ros.n())
	nw.memMu.Unlock()
	nw.joins.Add(1)
	nw.restarts.Add(1)
	if nw.onRestart != nil {
		nw.onRestart(p)
	}
	return nil
}

// checkPeersLocked validates a neighbor set for a splice-in of p and
// returns it sorted.
//
// requires memMu
func (nw *Network) checkPeersLocked(p graph.ProcID, neighbors []graph.ProcID) ([]graph.ProcID, error) {
	ros := nw.procs.Load()
	nbrs := append([]graph.ProcID(nil), neighbors...)
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	for i, q := range nbrs {
		if q == p {
			return nil, fmt.Errorf("msgpass: process %d cannot neighbor itself", p)
		}
		if int(q) < 0 || int(q) >= ros.n() {
			return nil, fmt.Errorf("msgpass: no process %d to join to", q)
		}
		if nw.departed[q] {
			return nil, fmt.Errorf("msgpass: cannot join to departed process %d", q)
		}
		if i > 0 && nbrs[i-1] == q {
			return nil, fmt.Errorf("msgpass: duplicate neighbor %d", q)
		}
		if nw.curAdj[graph.EdgeBetween(p, q)] {
			return nil, fmt.Errorf("msgpass: edge (%d,%d) already exists", p, q)
		}
	}
	return nbrs, nil
}

// spliceEdgeLocked registers edge {p,q} (p joining, q incumbent) in the
// adjacency books under a fresh frame edge index and returns the two
// endpoint states under the asymmetric humble rule.
//
// requires memMu
func (nw *Network) spliceEdgeLocked(p, q graph.ProcID) (joiner, incumbent edgeState) {
	e := graph.EdgeBetween(p, q)
	id := nw.nextEdgeID
	nw.nextEdgeID++
	nw.curAdj[e] = true
	nw.everAdj[e] = true
	joiner = edgeState{
		idx:       id,
		peer:      q,
		low:       p == e.A,
		peerState: core.Thinking,
		priority:  q, // the incumbent is the ancestor
		heard:     false,
	}
	incumbent = edgeState{
		idx:       id,
		peer:      p,
		low:       q == e.A,
		peerState: core.Thinking,
		priority:  q,
		heard:     true,
	}
	return joiner, incumbent
}

// queueOpLocked appends an edge op for node p and raises its poll hint.
//
// requires memMu
func (nw *Network) queueOpLocked(p graph.ProcID, op edgeOp) {
	nw.pendingOps[p] = append(nw.pendingOps[p], op)
	nw.ctl(p).edgeOps.Store(true)
}

// takeEdgeOps drains p's pending splice queue.
func (nw *Network) takeEdgeOps(p graph.ProcID) []edgeOp {
	nw.memMu.Lock()
	defer nw.memMu.Unlock()
	ops := nw.pendingOps[p]
	delete(nw.pendingOps, p)
	return ops
}

// growAccountingLocked extends the mu-guarded per-process tables by one
// slot (lock order: memMu before mu).
//
// requires memMu
func (nw *Network) growAccountingLocked() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.table = append(nw.table, Snapshot{State: core.Thinking})
	nw.meals.grow()
	nw.garbagePending = append(nw.garbagePending, false)
}

// rebuildGraphLocked freezes the current adjacency into a fresh
// immutable graph generation.
//
// requires memMu
func (nw *Network) rebuildGraphLocked(n int) {
	b := graph.NewBuilder(nw.cfg.Graph.Name(), n)
	edges := make([]graph.Edge, 0, len(nw.curAdj))
	for e := range nw.curAdj {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, e := range edges {
		b.AddEdge(e.A, e.B)
	}
	nw.curGraph.Store(b.Build())
}

// everEdges lists the union adjacency over all generations, in no
// particular order.
func (nw *Network) everEdges() []graph.Edge {
	nw.memMu.Lock()
	defer nw.memMu.Unlock()
	out := make([]graph.Edge, 0, len(nw.everAdj))
	for e := range nw.everAdj { //lint:sorted overlaps sorts what it finds; edge order is not observable
		out = append(out, e)
	}
	return out
}
