// The event loop: the wall-clock driver of Driven's primitives. A started
// Network runs one goroutine that steps every node through Boot, Tick,
// Deliver and Wake, the steps detsim drives on a virtual clock, so
// production and the simulator differ only in who orders the steps.
package msgpass

import (
	"slices"
	"sync"
	"time"

	"mcdp/internal/graph"
)

// queuePerNode bounds the loop's frame queue at this many frames per
// process. Past it frames are dropped (MessagesDropped); the periodic
// gossip retransmits what they carried.
const queuePerNode = 256

func (nw *Network) queueLimit() int { return queuePerNode * nw.N() }

// intake is how other goroutines hand the loop work without waiting on
// it: frames a transport received, and nodes to wake. Wakes of one node
// coalesce until the loop takes them.
type intake struct {
	kick   chan struct{} // capacity 1: the intake may be non-empty
	mu     sync.Mutex
	frames []Frame // guarded by mu
	wakes  []bool  // guarded by mu: p has a pending wake
}

// push queues a received frame unless limit frames already wait.
func (in *intake) push(f Frame, limit int) bool {
	in.mu.Lock()
	ok := len(in.frames) < limit
	if ok {
		in.frames = append(in.frames, f)
	}
	in.mu.Unlock()
	in.signal()
	return ok
}

func (in *intake) wake(p graph.ProcID) {
	in.mu.Lock()
	for int(p) >= len(in.wakes) {
		in.wakes = append(in.wakes, false)
	}
	in.wakes[p] = true
	in.mu.Unlock()
	in.signal()
}

func (in *intake) signal() {
	select {
	case in.kick <- struct{}{}:
	default:
	}
}

// take empties the intake, handing it the caller's consumed buffers.
func (in *intake) take(frames []Frame, wakes []bool) ([]Frame, []bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	frames, in.frames = in.frames, frames[:0]
	wakes, in.wakes = in.wakes, wakes[:0]
	return frames, wakes
}

// hold is a channel an injector delay stalls: the delayed frame and the
// frames sent behind it, released in order after ticks more ticks.
type hold struct {
	key    delayKey
	ticks  int
	frames []Frame
}

// loop is the event loop's state, owned by its goroutine.
type loop struct {
	nw           *Network
	d            Driven
	queue, spare []Frame // frames in flight, oldest first; the last drained queue
	holds        []hold
	frames       []Frame // intake buffer, reused
	wakes        []bool  // intake buffer, reused
}

// run is the event loop. A pass waits for a tick, the intake or Stop
// (with frames queued, for nothing), runs the intake's wakes, and
// delivers the frames queued before it; what they send waits a pass. A
// tick releases the holds it expires and ticks every process once; for
// a dead or departed one that only polls its control flags, which is
// how Restart and JoinProcess reach it.
func (nw *Network) run() {
	defer nw.wg.Done()
	l := &loop{nw: nw, d: Driven{nw: nw}}
	t := time.NewTicker(nw.cfg.TickEvery)
	defer t.Stop()
	boot := l.d.Boot()
	l.queue = make([]Frame, 0, len(boot)) // the boot gossip is queued whole
	l.route(boot)
	for {
		kick := nw.in.kick
		if len(l.queue) > 0 {
			kick = closed
		}
		select {
		case <-nw.done:
			return
		case <-t.C:
			l.tick()
		case <-kick:
		}
		l.frames, l.wakes = nw.in.take(l.frames, l.wakes)
		for _, f := range l.frames {
			l.enqueue(f)
		}
		for p, woken := range l.wakes {
			if woken {
				l.route(l.d.Wake(graph.ProcID(p)))
			}
		}
		batch := l.queue
		l.queue = l.spare[:0]
		for _, f := range batch {
			l.route(l.d.Deliver(f))
		}
		l.spare = batch[:0]
	}
}

// closed is always ready: the loop selects on it instead of the intake
// when frames are already queued, so it waits for nothing.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (l *loop) tick() {
	kept := l.holds[:0]
	for _, h := range l.holds {
		if h.ticks--; h.ticks > 0 {
			kept = append(kept, h)
			continue
		}
		for _, f := range h.frames {
			l.send(f)
		}
	}
	clear(l.holds[len(kept):])
	l.holds = kept
	for p := 0; p < l.nw.N(); p++ {
		l.route(l.d.Tick(graph.ProcID(p)))
	}
}

// route carries the frames one step emitted: a frame on a held channel
// waits behind the hold, a delayed frame starts a hold of its Delay in
// ticks, any other frame goes out at once. Every frame is copied out, so
// the step's buffer goes back to the network for the next step.
func (l *loop) route(frames []Frame) {
	for _, f := range frames {
		key := delayKey{f.m.edgeIdx, f.From}
		i := slices.IndexFunc(l.holds, func(h hold) bool { return h.key == key })
		switch {
		case i >= 0:
			l.holds[i].frames = append(l.holds[i].frames, f)
		case f.Delay > 0:
			l.holds = append(l.holds, hold{key: key, ticks: f.Delay, frames: []Frame{f}})
		default:
			l.send(f)
		}
	}
	l.nw.out = frames[:0]
}

// send puts a frame on the external transport, if any, else in the queue.
func (l *loop) send(f Frame) {
	if tr := l.nw.transport; tr != nil {
		if !tr(f.To, f.m) {
			l.nw.lost.Add(1) // gossip will retransmit
		}
		return
	}
	l.enqueue(f)
}

func (l *loop) enqueue(f Frame) {
	if len(l.queue) >= l.nw.queueLimit() {
		l.nw.dropped.Add(1)
		return
	}
	l.queue = append(l.queue, f)
}
