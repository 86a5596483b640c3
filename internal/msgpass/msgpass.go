// Package msgpass realizes the paper's Section 4: the transformation of
// the shared-memory algorithm to an asynchronous message-passing system,
// here one goroutine per philosopher connected by reliable channels.
//
// The synchronization substrate is the one the paper points at — a
// stabilizing handshake derived from Dijkstra's K-state token circulation
// — specialized to each edge's two endpoints:
//
//   - every edge {low, high} carries one logical token. The low endpoint
//     holds it iff its counter equals its cached copy of the peer's
//     counter; the high endpoint holds it iff its counter differs from
//     its cached copy of the low counter. Passing the token means
//     advancing one's own counter (low increments mod K, high adopts),
//     which is exactly Dijkstra's two-machine K-state protocol, so from
//     arbitrary counter corruption the edge stabilizes to a single
//     alternating token;
//   - nodes gossip their current (counter, state, depth, priority belief)
//     on every edge — at once when they turn Hungry or, not having just
//     eaten, are asked for a token they can spare, and periodically on a
//     tick — so message loss or buffer overflow only delays, never
//     wedges, the protocol; receiving a duplicate is idempotent;
//   - the token is the write capability for the shared priority
//     variable: only the current holder mutates its belief, and a
//     receiver adopts the belief in a message iff the counters in that
//     message prove the sender held the token when it sent. Yields
//     requested while not holding (the exit action) are buffered and
//     applied on next possession;
//   - the token is also the atomicity refinement for eating: the engine
//     lets the enter action fire only while the node holds every
//     incident token, and an eating node retains all tokens until it
//     exits. Starting from a legitimate state token possession is
//     exclusive, which makes neighbor eating exclusion exact rather
//     than probabilistic; from corrupted counters it is re-established
//     by the K-state stabilization, giving the eventual safety a
//     stabilizing solution promises.
//
// The guarded-command algorithm itself is not rewritten: each node
// evaluates the very same core.Algorithm (the paper's Figure 1) against a
// view assembled from its own variables and its freshest per-edge caches.
package msgpass

import (
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// kStates is the K of the per-edge K-state protocol. Any K >= 2 works for
// two machines; a larger K shrinks the probability that corrupted
// counters mimic a legal configuration for long.
const kStates = 8

// message is one gossip/token frame on an edge.
type message struct {
	// edgeIdx identifies the edge in the graph's edge order.
	edgeIdx int
	// from is the sending endpoint.
	from graph.ProcID
	// counter is the sender's K-state counter for this edge.
	counter uint8
	// state and depth are the sender's own variables.
	state core.State
	depth int
	// priority is the sender's belief of the edge's priority holder.
	priority graph.ProcID
}

// EatSession records one eating interval for safety checking.
type EatSession struct {
	// Proc is the eater.
	Proc graph.ProcID
	// Start and End bound the interval (monotonic clock).
	Start, End time.Time
	// PostGarbage marks the node's first session after a garbage
	// restart. Arbitrary boot state can forge token parity for exactly
	// one entry before the neighbors' frames re-cohere the edges, so
	// this session may overlap a neighbor's — a stabilization transient
	// the paper's safety property does not cover, and the overlap
	// oracle exempts it.
	PostGarbage bool
}

// Config tunes a Network.
type Config struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// Algorithm is the diners algorithm each node runs. Required.
	Algorithm core.Algorithm
	// DiameterOverride, if positive, replaces the true diameter as the
	// constant D.
	DiameterOverride int
	// Hungry fixes needs():p per node; nil means always hungry.
	Hungry []bool
	// EatEvents is how many node events an eating session spans before
	// exit becomes eligible (>= 1; default 2).
	EatEvents int
	// TickEvery is the gossip period (default 1ms): how often every node
	// re-sends its full state on every edge. It paces retransmission,
	// stabilization and the token rotation of a busy neighborhood (a
	// node that has just eaten releases its tokens with its tick); hunger
	// and an idle holder's handover are sent the moment they happen, so
	// a grant in an idle neighborhood does not wait for it.
	TickEvery time.Duration
	// InboxSize is each node's channel capacity (default 256).
	InboxSize int
	// LossRate drops each frame independently with this probability
	// (0..1). The protocol is built to tolerate loss: every frame is a
	// full-state gossip retransmitted each tick, so loss only delays.
	LossRate float64
	// Seed drives the arbitrary-state initializer, malicious garbage,
	// and loss decisions.
	Seed int64
	// Faults, when non-nil, is consulted on every frame delivery to
	// inject transport faults (drop, duplicate, corrupt, delay). It
	// composes with LossRate and partitions, which apply first. See
	// internal/chaos for the seeded, replayable implementation.
	Faults FaultInjector
	// OnSnapshot, if non-nil, is called after every snapshot publish with
	// the publishing node's fresh snapshot. It runs on node goroutines
	// outside the network's locks and must be fast and non-blocking —
	// typically a non-blocking nudge on a channel. Hunger set through
	// SetNeeds plus this hook is what lets an external controller (the
	// lock service in internal/lockservice) drive and observe the system
	// without touching node-owned state.
	OnSnapshot func(p graph.ProcID, s Snapshot)
}
