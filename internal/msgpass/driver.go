// Driven mode: the same runtime, stepped by an external single-threaded
// driver instead of goroutines and wall-clock tickers.
//
// The goroutine loop (runGuarded) is only a scheduler: it interleaves
// three primitives — the initial gossip, "one tick event" (pollControl +
// onEvent + gossipAll), and "one frame delivery" (pollControl + receive).
// Driven exposes exactly those primitives, captures every frame the node
// logic emits instead of pushing it into channels, and reads time from a
// pluggable clock. A deterministic scheduler (internal/detsim) that owns
// the interleaving, the in-flight frame pool, and a virtual clock can
// therefore replay any schedule byte-for-byte while running the very same
// protocol code the production goroutine runtime executes.
//
//lint:deterministic
package msgpass

import (
	"fmt"
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

	// Delay is the fault injector's remaining hold, in driver rounds: a
	// deterministic driver must keep the frame pending for this many
	// rounds before delivering it (zero for normal frames).
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

// EdgeIndex returns the graph edge index the frame travels on.
func (f Frame) EdgeIndex() int { return f.m.edgeIdx }

// Driven is a Network in single-threaded, externally driven mode: no
// goroutines run; the caller steps nodes and delivers frames explicitly.
// All Network control surfaces (Kill, CrashMaliciously, SetNeeds,
// SetPartitioned, InitArbitrary) and accessors (Eats, Sessions,
// Snapshot, ...) work as usual; Start must not be called.
type Driven struct {
	nw  *Network
	out []Frame
}

// NewDriven builds a driven network. clock supplies the network's notion
// of time (virtual time for deterministic runs); nil keeps time.Now.
func NewDriven(cfg Config, clock func() time.Time) *Driven {
	nw := NewNetwork(cfg)
	nw.driven = true
	if clock != nil {
		nw.now = clock
	}
	d := &Driven{nw: nw}
	nw.sendFrame = func(to graph.ProcID, m message, delayTicks int) bool {
		d.out = append(d.out, Frame{To: to, From: m.from, Delay: delayTicks, m: m})
		return true
	}
	return d
}

// Network returns the underlying network for control and inspection.
func (d *Driven) Network() *Network { return d.nw }

// take drains the frames captured since the last step.
func (d *Driven) take() []Frame {
	out := d.out
	d.out = nil
	return out
}

// Boot performs each node's initial gossip (the goroutine loop's first
// act) and returns the emitted frames. Call once, before any stepping.
func (d *Driven) Boot() []Frame {
	for _, nd := range d.nw.procs.Load().nodes {
		nd.gossipAll()
	}
	return d.take()
}

// Tick delivers one scheduler tick to node p — exactly the ticker arm of
// the goroutine loop — and returns the frames it emitted.
func (d *Driven) Tick(p graph.ProcID) []Frame {
	nd := d.nw.procs.Load().nodes[p]
	nd.pollControl()
	nd.tick()
	return d.take()
}

// Deliver hands frame f to its destination — exactly the inbox arm of
// the goroutine loop — and returns the frames emitted in response: a
// token handover on f's edge from a node that has not just eaten, a
// gossip on every edge if the event turned the node Hungry, usually
// nothing.
func (d *Driven) Deliver(f Frame) []Frame {
	nd := d.nw.procs.Load().nodes[f.To]
	nd.pollControl()
	nd.receive(f.m)
	return d.take()
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

// Halting reports whether node p has a kill or revival command it has
// not yet polled. Control flags apply lazily at the node's next step, so
// between the command and that step its variables are a corpse — frozen
// by a departure, or about to be rebooted — not a live protocol state;
// safety oracles exempt the window exactly as they exempt the dead.
func (r *DrivenReader) Halting(p graph.ProcID) bool {
	ros := r.nw.procs.Load()
	return ros.kill[p].Load() || ros.restart[p].Load() != 0
}

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

// ForkDriven is a ForkNetwork in single-threaded, externally driven
// mode — the deterministic counterpart of the goroutine baseline, used
// to pin the classic protocol's crash behavior exactly.
type ForkDriven struct {
	nw  *ForkNetwork
	out []ForkFrame
}

// NewForkDriven builds a driven Chandy-Misra network with the given
// clock (nil keeps time.Now).
func NewForkDriven(cfg ForkConfig, clock func() time.Time) *ForkDriven {
	nw := NewForkNetwork(cfg)
	nw.driven = true
	if clock != nil {
		nw.now = clock
	}
	d := &ForkDriven{nw: nw}
	nw.sendFrame = func(to graph.ProcID, m forkMsg) bool {
		d.out = append(d.out, ForkFrame{To: to, From: m.from, m: m})
		return true
	}
	return d
}

// Network returns the underlying network for control and inspection.
func (d *ForkDriven) Network() *ForkNetwork { return d.nw }

func (d *ForkDriven) take() []ForkFrame {
	out := d.out
	d.out = nil
	return out
}

// Tick delivers one self-check tick to philosopher p (the ticker arm of
// the goroutine loop) and returns the frames it emitted.
func (d *ForkDriven) Tick(p graph.ProcID) []ForkFrame {
	nd := d.nw.nodes[p]
	nd.poll()
	nd.act()
	return d.take()
}

// Deliver hands frame f to its destination (the inbox arm of the
// goroutine loop) and returns the frames emitted in response.
func (d *ForkDriven) Deliver(f ForkFrame) []ForkFrame {
	nd := d.nw.nodes[f.To]
	nd.poll()
	nd.handle(f.m)
	nd.act()
	return d.take()
}

// Finish closes any open eating session at the current (virtual)
// instant.
func (d *ForkDriven) Finish() { d.nw.finishSessions() }

// Eating reports whether philosopher p is currently eating.
func (d *ForkDriven) Eating(p graph.ProcID) bool { return d.nw.nodes[p].state == 1 }

// Dead reports whether philosopher p has halted.
func (d *ForkDriven) Dead(p graph.ProcID) bool { return d.nw.nodes[p].dead }
