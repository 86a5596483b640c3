// Driven mode: the node logic as four primitives an external
// single-threaded driver steps.
//
// The primitives are the initial gossip (Boot), "one tick event"
// (pollControl + onEvent + gossipAll), "one frame delivery" (pollControl
// + receive) and "one demand-driven event" (pollControl + onEvent, and a
// gossip if the event moved the node into or out of Thinking). Each
// returns the frames the node logic emitted, and time comes from a
// pluggable clock. There are two drivers. The production one is the
// network's event loop (Network.Start, loop.go), which steps them on a
// wall clock. The other is a deterministic scheduler (internal/detsim)
// that owns the interleaving, the in-flight frame pool and a virtual
// clock, and so replays any schedule byte-for-byte while running the very
// same protocol code production runs.
//
//lint:deterministic
package msgpass

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// Frame is one in-flight protocol frame held by an external driver
// between send and delivery. The payload is opaque; String exposes it so
// schedule traces pin frame contents, not just envelopes.
type Frame struct {
	// To and From are the receiving and sending endpoints.
	To, From graph.ProcID

	// Delay is the fault injector's remaining hold: the driver must keep
	// the frame's channel stalled for this many rounds (ticks, under the
	// event loop) before delivering it (zero for normal frames).
	Delay int

	m message
}

// String renders the full frame payload for event traces.
func (f Frame) String() string {
	if f.Delay > 0 {
		return fmt.Sprintf("e%d %d->%d k%d s%d dp%d pr%d hold%d",
			f.m.edgeIdx, f.From, f.To, f.m.counter, f.m.state, f.m.depth, f.m.priority, f.Delay)
	}
	return fmt.Sprintf("e%d %d->%d k%d s%d dp%d pr%d",
		f.m.edgeIdx, f.From, f.To, f.m.counter, f.m.state, f.m.depth, f.m.priority)
}

// AppendBinary appends the frame — envelope, hold and full payload, the
// fields String renders — as a fixed sequence of varints, so a trace can
// hash it without formatting it. It never fails.
func (f Frame) AppendBinary(b []byte) ([]byte, error) {
	for _, v := range [...]int64{int64(f.To), int64(f.From), int64(f.Delay), int64(f.m.edgeIdx),
		int64(f.m.from), int64(f.m.counter), int64(f.m.state), int64(f.m.depth), int64(f.m.priority)} {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// EdgeIndex returns the graph edge index the frame travels on.
func (f Frame) EdgeIndex() int { return f.m.edgeIdx }

// Driven is a Network in single-threaded, externally driven mode: no
// goroutines run; the caller steps nodes and delivers frames explicitly.
// All Network control surfaces (Kill, CrashMaliciously, SetNeeds,
// SetPartitioned, InitArbitrary) and accessors (Eats, Sessions,
// Snapshot, ...) work as usual; Start must not be called.
type Driven struct {
	nw *Network
}

// NewDriven builds a driven network. clock supplies the network's notion
// of time (virtual time for deterministic runs); nil keeps time.Now.
func NewDriven(cfg Config, clock func() time.Time) *Driven {
	nw := NewNetwork(cfg)
	nw.driven = true
	if clock != nil {
		nw.now = clock
	}
	return &Driven{nw: nw}
}

// Network returns the underlying network for control and inspection.
func (d *Driven) Network() *Network { return d.nw }

// take drains the frames emitted since the last step.
func take[F any](out *[]F) []F {
	f := *out
	*out = nil
	return f
}

// Boot performs each node's initial gossip and returns the emitted
// frames. Call once, before any stepping.
func (d *Driven) Boot() []Frame {
	nodes := d.nw.procs.Load().nodes
	n := 0
	for _, nd := range nodes {
		n += len(nd.edges) // gossipAll sends one frame per edge
	}
	d.nw.out = slices.Grow(d.nw.out, n)
	for _, nd := range nodes {
		nd.gossipAll()
	}
	return take(&d.nw.out)
}

// Tick delivers one scheduler tick to node p and returns the frames it
// emitted.
func (d *Driven) Tick(p graph.ProcID) []Frame {
	nd := d.nw.procs.Load().nodes[p]
	nd.pollControl()
	nd.tick()
	return take(&d.nw.out)
}

// Deliver hands frame f to its destination and returns the frames
// emitted in response: a token handover on f's edge from a node that has
// not just eaten, a gossip on every edge if the event turned the node
// Hungry, usually nothing.
func (d *Driven) Deliver(f Frame) []Frame {
	nd := d.nw.procs.Load().nodes[f.To]
	nd.pollControl()
	nd.receive(f.m)
	return take(&d.nw.out)
}

// Wake runs one demand-driven event at node p — what a pending
// Network.Wake asks for — and returns the frames it emitted: a gossip on
// every edge if the event moved p into or out of Thinking, else nothing.
func (d *Driven) Wake(p graph.ProcID) []Frame {
	nd := d.nw.procs.Load().nodes[p]
	nd.pollControl()
	nd.wake()
	return take(&d.nw.out)
}

// Finish closes any open eating session at the current (virtual)
// instant, the driven-mode counterpart of Stop's session flush.
func (d *Driven) Finish() { d.nw.finishSessions() }

// Reader returns a read-only view of the driven network's instantaneous
// node variables in the sim.StateReader shape, so the specification
// predicates of internal/spec apply to simulated traces unchanged.
func (d *Driven) Reader() *DrivenReader { return &DrivenReader{nw: d.nw} }

// DrivenReader adapts a driven network to the StateReader methods. Only
// valid between driver steps of a single-threaded run.
type DrivenReader struct {
	nw *Network
}

// Graph returns the current topology generation (membership splices
// install a fresh immutable graph; see Network.Graph).
func (r *DrivenReader) Graph() *graph.Graph { return r.nw.Graph() }

// DiameterConst returns the constant D the nodes use.
func (r *DrivenReader) DiameterConst() int { return r.nw.d }

// State returns node p's current dining state variable.
func (r *DrivenReader) State(p graph.ProcID) core.State { return r.nw.procs.Load().nodes[p].state }

// Depth returns node p's current depth variable.
func (r *DrivenReader) Depth(p graph.ProcID) int { return r.nw.procs.Load().nodes[p].depth }

// Dead reports whether node p has halted. A node inside its malicious
// window is not yet dead (see Malicious).
func (r *DrivenReader) Dead(p graph.ProcID) bool { return r.nw.procs.Load().nodes[p].dead }

// Malicious reports whether node p is inside a malicious-crash window:
// still taking steps, but with garbage state. Safety oracles exempt such
// nodes the same way they exempt the dead — a corrupted Eating variable
// is not an eating session.
func (r *DrivenReader) Malicious(p graph.ProcID) bool { return r.nw.procs.Load().nodes[p].malSteps > 0 }

// Halting is Network.Halting; safety oracles exempt the window exactly
// as they exempt the dead.
func (r *DrivenReader) Halting(p graph.ProcID) bool { return r.nw.Halting(p) }

// Priority returns the believed holder of the shared priority variable
// on edge e: the belief of the endpoint currently holding the edge
// token (the write capability), falling back to the low endpoint's
// belief while the token is in flight.
func (r *DrivenReader) Priority(e graph.Edge) graph.ProcID {
	ros := r.nw.procs.Load()
	ea := ros.nodes[e.A].edgeToOrNil(e.B)
	eb := ros.nodes[e.B].edgeToOrNil(e.A)
	if ea == nil || eb == nil {
		panic(fmt.Sprintf("msgpass: no edge %v", e))
	}
	switch {
	case ea.holds():
		return ea.priority
	case eb.holds():
		return eb.priority
	default:
		return ea.priority
	}
}

// ForkFrame is one in-flight Chandy-Misra frame held by an external
// driver between send and delivery.
type ForkFrame struct {
	// To and From are the receiving and sending endpoints.
	To, From graph.ProcID

	m forkMsg
}

// String renders the frame payload for event traces.
func (f ForkFrame) String() string {
	return fmt.Sprintf("e%d %d->%d kind%d", f.m.edgeIdx, f.From, f.To, f.m.kind)
}

// AppendBinary appends the frame as a fixed sequence of varints, as
// Frame.AppendBinary does. It never fails.
func (f ForkFrame) AppendBinary(b []byte) ([]byte, error) {
	for _, v := range [...]int64{int64(f.To), int64(f.From), int64(f.m.edgeIdx), int64(f.m.from), int64(f.m.kind)} {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// ForkDriven is a ForkNetwork in single-threaded, externally driven
// mode: the primitives its event loop steps on a wall clock, here owned
// by a deterministic driver that pins the classic protocol's crash
// behavior exactly.
type ForkDriven struct {
	nw *ForkNetwork
}

// NewForkDriven builds a driven Chandy-Misra network with the given
// clock (nil keeps time.Now).
func NewForkDriven(cfg ForkConfig, clock func() time.Time) *ForkDriven {
	nw := NewForkNetwork(cfg)
	nw.driven = true
	if clock != nil {
		nw.now = clock
	}
	return &ForkDriven{nw: nw}
}

// Network returns the underlying network for control and inspection.
func (d *ForkDriven) Network() *ForkNetwork { return d.nw }

// Tick delivers one self-check tick to philosopher p and returns the
// frames it emitted.
func (d *ForkDriven) Tick(p graph.ProcID) []ForkFrame {
	nd := d.nw.nodes[p]
	nd.poll()
	nd.act()
	return take(&d.nw.out)
}

// Deliver hands frame f to its destination and returns the frames
// emitted in response.
func (d *ForkDriven) Deliver(f ForkFrame) []ForkFrame {
	nd := d.nw.nodes[f.To]
	nd.poll()
	nd.handle(f.m)
	nd.act()
	return take(&d.nw.out)
}

// Finish closes any open eating session at the current (virtual)
// instant.
func (d *ForkDriven) Finish() { d.nw.finishSessions() }

// Eating reports whether philosopher p is currently eating.
func (d *ForkDriven) Eating(p graph.ProcID) bool { return d.nw.nodes[p].state == 1 }

// Dead reports whether philosopher p has halted.
func (d *ForkDriven) Dead(p graph.ProcID) bool { return d.nw.nodes[p].dead }
