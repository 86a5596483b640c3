// Transport fault injection: a pluggable per-frame decision hook on the
// delivery path, shared by the event loop's in-process queue, the TCP
// transport, and the driven (detsim) mode. The protocol's stabilization
// claim is exactly that none of these faults can break it — frames are
// full-state gossip, so drops and delays only slow convergence,
// duplicates are idempotent, and corrupted payloads are one more shape
// of the arbitrary state the K-state handshake already absorbs.
package msgpass

import (
	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// FaultDecision is what the delivery path does with one frame. The zero
// value passes the frame through untouched.
type FaultDecision struct {
	// Drop loses the frame in transit (gossip retransmits).
	Drop bool
	// Duplicates sends this many extra copies of the frame.
	Duplicates int
	// CorruptBits, when non-zero, scrambles the frame payload with
	// domain-respecting garbage derived from these bits — the in-flight
	// analogue of a malicious node's garbage frames.
	CorruptBits uint64
	// DelayTicks, when positive, holds the frame for roughly that many
	// gossip ticks before delivery (virtual rounds under a driver),
	// letting later frames overtake it — delay and reordering in one.
	DelayTicks int
}

// FaultInjector decides per-frame transport faults. Decide runs on the
// goroutine stepping the sender — the network's event loop, or a
// single-threaded driver, under which the call order is deterministic,
// so a seeded injector makes whole fault campaigns replayable
// (internal/chaos).
type FaultInjector interface {
	Decide(from, to graph.ProcID, edgeIdx int) FaultDecision
}

// applyFaults runs the configured injector on one frame and transmits
// the surviving copies. It is only called when an injector is set.
func (nw *Network) applyFaults(p graph.ProcID, m message) {
	d := nw.cfg.Faults.Decide(m.from, p, m.edgeIdx)
	if d.Drop {
		nw.faultsDropped.Add(1)
		nw.lost.Add(1)
		return
	}
	if d.CorruptBits != 0 {
		m = corruptMessage(m, d.CorruptBits, nw.d)
		nw.faultsCorrupted.Add(1)
	}
	for i := 0; i < d.Duplicates; i++ {
		nw.faultsDuplicated.Add(1)
		nw.transmit(p, m, d.DelayTicks)
	}
	nw.transmit(p, m, d.DelayTicks)
}

// delayKey identifies one directed channel: an edge plus the sending
// endpoint. Delays operate at channel granularity.
type delayKey struct {
	edge int
	from graph.ProcID
}

// transmit emits one frame copy for the stepper to carry, the injector's
// delay riding on the Frame. Delay is head-of-line blocking, not
// per-frame lateness: the stepper stalls the whole channel, frames sent
// behind the delayed one wait in order, and other channels overtake it,
// which is where the observable reordering comes from. Per-channel FIFO
// is the one ordering property the K-state handshake needs — a stale
// counter delivered after newer frames can fake a second token — and
// every transport here provides it.
func (nw *Network) transmit(p graph.ProcID, m message, delayTicks int) {
	if delayTicks > 0 {
		nw.faultsDelayed.Add(1)
	}
	nw.out = append(nw.out, Frame{To: p, From: m.from, Delay: delayTicks, m: m})
}

// corruptMessage scrambles a frame's payload with domain-respecting
// garbage drawn from the given bits: a valid-looking state, a depth
// within the bound, and a priority claim for either endpoint. The
// K-state counter is deliberately left intact. Corrupting it would
// model a Byzantine channel that continuously forges token-possession
// proofs, which no stabilizing dining solution tolerates (the same
// reason the adversarial scheduler keeps channels FIFO) — and real
// transports checksum frames, turning bit corruption into the drops
// the Drop rate already models. What survives a checksum is garbage
// application payload, the in-flight analogue of a malicious node's
// garbage frames, and that is what this injects: it can stall or
// misdirect progress transiently, and the next genuine gossip on the
// edge repairs it.
func corruptMessage(m message, bits uint64, d int) message {
	x := splitmix(bits)
	m.state = core.State(x>>8%3 + 1)
	m.depth = int((x >> 16) % uint64(2*d+4))
	if x>>24&1 == 0 {
		m.priority = m.from
	}
	return m
}
