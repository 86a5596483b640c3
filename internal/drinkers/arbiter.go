package drinkers

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mcdp/internal/graph"
)

// ErrQueueFull reports that a home node's session queue is at capacity.
// Callers surface it as backpressure (HTTP 429 in the lock service).
var ErrQueueFull = errors.New("drinkers: session queue full")

// SessionStatus is a submitted session's lifecycle phase.
type SessionStatus int

// Session lifecycle: Pending (queued, waiting for its home node's
// exclusive window and its bottles), Drinking (granted, bottles held),
// Done (released or canceled).
const (
	Pending SessionStatus = iota
	Drinking
	Done
)

// Session is one submitted drinking session: a request to hold a set of
// bottles (edges) rooted at a home node. A Session is created by
// Arbiter.Submit and granted by Arbiter.Pump (or TryAtHand); the Granted
// channel closes exactly once, at grant time.
type Session struct {
	// Home is the node the session is queued at (an endpoint of every
	// bottle edge).
	Home graph.ProcID
	// Bottles are the needed edges, as indices into Graph.Edges(),
	// deduplicated and sorted.
	Bottles []int

	granted chan struct{}
	status  SessionStatus // guarded by mu (the arbiter's)
}

// Granted returns a channel that is closed when the session is granted.
func (s *Session) Granted() <-chan struct{} { return s.granted }

// Arbiter is the thread-safe session-submission hook onto the drinkers
// layer: it queues sessions per home node, and grants the head of a
// queue while an external oracle says that node is inside its exclusive
// diners window (the paper's enter guard has fired and the node is
// Eating) — or, with no meal at all, when nobody contends for the bottles
// the head needs (the at-hand rule, see Pump). Safety is enforced by
// construction — every bottle is attached to at most one Drinking session
// at a time — while liveness, fairness, and crash failure locality come
// from the diners substrate that drives the oracle: a bottle that sessions
// at both of its endpoints ask for changes endpoint only while its
// collector is eating, no two neighbors eat at once, so no two competing
// collectors ever play tug-of-war over a bottle. A bottle only one
// endpoint asks for has no competition to arbitrate: its live holder
// surrenders it on request, which is all the drinkers algorithm ever
// required of a philosopher that neither drinks from a bottle nor thirsts
// for it.
//
// Unlike Sim (which owns a lock-step simulator), an Arbiter is substrate
// agnostic and safe for concurrent use; internal/lockservice drives one
// from the msgpass runtime's snapshot hook.
type Arbiter struct {
	// OnSubmit, OnGrant, OnRelease, and OnCancel, when non-nil, are
	// invoked synchronously under the arbiter's mutex at the matching
	// lifecycle transition, in the exact order the arbiter's own state
	// changes — which is what makes them usable as history taps: a
	// recorded grant can never appear to precede the submit or follow
	// the release it raced with. Hooks must be fast and must not call
	// back into the arbiter. Set them before sharing the arbiter across
	// goroutines (lockservice.History.Tap wires all four).
	OnSubmit  func(*Session)
	OnGrant   func(*Session)
	OnRelease func(*Session)
	OnCancel  func(*Session)

	// Alive, when non-nil, switches on the drinkers' at-hand rule (see
	// Pump) and is its liveness oracle: it reports whether a node's
	// current incarnation is up and in service. Like the lifecycle hooks
	// it runs under the arbiter's mutex and is set before the arbiter is
	// shared. Nil means every grant needs a meal.
	Alive func(graph.ProcID) bool

	mu         sync.Mutex
	g          *graph.Graph
	queueLimit int

	queues      [][]*Session   // per node, FIFO; guarded by mu
	user        []*Session     // per edge: the Drinking session using the bottle, or nil; guarded by mu
	holder      []graph.ProcID // per edge: the endpoint the bottle sits at (the home of the last session that took it); guarded by mu
	active      int            // Drinking session count; guarded by mu
	atHand      int64          // grants made without a meal; guarded by mu
	surrendered int64          // of those, grants that took a bottle its peer surrendered; guarded by mu
}

// NewArbiter returns an arbiter over g with the given per-node queue
// capacity (<= 0 means a default of 64).
func NewArbiter(g *graph.Graph, queueLimit int) *Arbiter {
	if g == nil {
		panic("drinkers: NewArbiter requires a graph")
	}
	if queueLimit <= 0 {
		queueLimit = 64
	}
	a := &Arbiter{
		g:          g,
		queueLimit: queueLimit,
		queues:     make([][]*Session, g.N()),
		user:       make([]*Session, g.EdgeCount()),
		holder:     make([]graph.ProcID, g.EdgeCount()),
	}
	for i, e := range g.Edges() {
		a.holder[i] = e.A
	}
	return a
}

// Submit queues a session for the given home node needing the given
// bottle edges (indices into Graph.Edges()). Every bottle must be
// incident to home. It returns ErrQueueFull when the home queue is at
// capacity.
//
//lint:lease acquire
func (a *Arbiter) Submit(home graph.ProcID, bottles []int) (*Session, error) {
	if home < 0 || int(home) >= a.g.N() {
		return nil, fmt.Errorf("drinkers: home node %d out of range", home)
	}
	// A session's distinct bottles number at most its home's degree, so
	// a linear scan dedups them without a map.
	dedup := make([]int, 0, len(bottles))
	for _, b := range bottles {
		if b < 0 || b >= a.g.EdgeCount() {
			return nil, fmt.Errorf("drinkers: bottle index %d out of range", b)
		}
		e := a.g.Edges()[b]
		if e.A != home && e.B != home {
			return nil, fmt.Errorf("drinkers: bottle %v not incident to home %d", e, home)
		}
		if !slices.Contains(dedup, b) {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		return nil, errors.New("drinkers: session needs at least one bottle")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queues[home]) >= a.queueLimit {
		return nil, ErrQueueFull
	}
	s := &Session{Home: home, Bottles: dedup, granted: make(chan struct{})}
	a.queues[home] = append(a.queues[home], s)
	if a.OnSubmit != nil {
		a.OnSubmit(s)
	}
	return s, nil
}

// Cancel removes a still-Pending session from its queue and reports
// whether it did. A false return means the session was already granted
// (or previously finished): the caller owns it and must Release it.
func (a *Arbiter) Cancel(s *Session) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.status != Pending {
		return false
	}
	q := a.queues[s.Home]
	for i, qs := range q {
		if qs == s {
			a.queues[s.Home] = append(q[:i], q[i+1:]...)
			s.status = Done
			if a.OnCancel != nil {
				a.OnCancel(s)
			}
			return true
		}
	}
	return false
}

// Release ends a Drinking session, detaching it from its bottles (the
// bottles stay at the home node — at hand for its next session — until
// a session across the edge takes them, by its meal or because nobody
// here asks for them). It reports whether the session was actually
// drinking.
//
//lint:lease release
func (a *Arbiter) Release(s *Session) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.status != Drinking {
		return false
	}
	for _, b := range s.Bottles {
		if a.user[b] == s {
			a.user[b] = nil
		}
	}
	s.status = Done
	a.active--
	if a.OnRelease != nil {
		a.OnRelease(s)
	}
	return true
}

// Status returns the session's current lifecycle phase.
func (a *Arbiter) Status(s *Session) SessionStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return s.status
}

// HasPending reports whether node p has queued (ungranted) sessions —
// exactly when p should be hungry in the diners substrate.
func (a *Arbiter) HasPending(p graph.ProcID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queues[p]) > 0
}

// QueueDepth returns the number of queued sessions at node p.
func (a *Arbiter) QueueDepth(p graph.ProcID) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queues[p])
}

// QueueDepths returns the per-node queued session counts.
func (a *Arbiter) QueueDepths() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.queues))
	for p, q := range a.queues {
		out[p] = len(q)
	}
	return out
}

// Active returns the number of currently Drinking sessions.
func (a *Arbiter) Active() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// Holder returns the endpoint the bottle on edge index b sits at: the
// home of the last session that took it. The position is load-bearing — it
// decides which endpoint's queued sessions can keep the bottle from the
// other one — and it changes in two places only: inside its collector's
// meal, and at a meal-less grant to a requester whose live peer has no
// queued session for it (see Pump).
func (a *Arbiter) Holder(b int) graph.ProcID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.holder[b]
}

// AtHandGrants returns how many sessions were granted without a meal.
func (a *Arbiter) AtHandGrants() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.atHand
}

// SurrenderedGrants returns how many of the meal-less grants moved at
// least one bottle across its edge.
func (a *Arbiter) SurrenderedGrants() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.surrendered
}

// Pump runs one scheduling pass: for every node that the eating oracle
// places inside its exclusive window, it tries to collect the head
// session's bottles and grants as many consecutive head sessions as
// collect. A bottle can be collected iff no Drinking session is
// attached to it; a Drinking neighbor's bottle is never stolen — that
// is the drinkers surrender rule, and it is what makes two overlapping
// grants that share a bottle impossible by construction. Pump returns
// the sessions granted in this pass (their Granted channels are already
// closed).
//
// Eating is a license to take a bottle somebody else asks for, so a head
// nobody contends with needs no meal: with Alive set, a node that is not
// eating still grants its head when the home is alive and every bottle
// the session needs is free and at hand (see atHandOK) — already at the
// home, or at a live peer that has no queued session for it and so
// surrenders it, the bottle moving to the home at that grant. Such a
// grant overtakes nobody: a session queued at either live endpoint closes
// the rule for that bottle at the other one until a meal has served it,
// so neither a stream of sessions at the holder nor one across the edge
// can starve it, and a bottle asked for at both ends moves only in meals.
//
// The oracle may be slightly stale (the msgpass substrate publishes
// snapshots asynchronously); staleness can only delay grants or cause a
// harmless extra collection attempt, never a conflicting grant, because
// all bottle accounting happens under one mutex.
func (a *Arbiter) Pump(eating func(p graph.ProcID) bool) []*Session {
	return a.PumpNeeds(eating, nil)
}

// PumpNeeds is Pump followed, inside the same critical section, by a
// report of each node's hunger to needs: whether sessions are still
// queued at it (the HasPending rule). Taking both from one instant
// matters to a caller that turns the report into diners demand: a
// session whose submitter is between Submit and TryAtHand is either not
// queued yet or granted at hand by this very pass, so it never costs
// its home a meal. needs runs under the arbiter's mutex, like the
// lifecycle hooks.
func (a *Arbiter) PumpNeeds(eating func(p graph.ProcID) bool, needs func(p graph.ProcID, pending bool)) []*Session {
	a.mu.Lock()
	defer a.mu.Unlock()
	var grants []*Session
	for p := range a.queues {
		if len(a.queues[p]) == 0 {
			continue
		}
		eats := eating(graph.ProcID(p))
		for len(a.queues[p]) > 0 {
			s := a.queues[p][0]
			if !a.admit(s, eats) {
				break
			}
			a.grant(s)
			grants = append(grants, s)
		}
	}
	if needs != nil {
		for p := range a.queues {
			needs(graph.ProcID(p), len(a.queues[p]) > 0)
		}
	}
	return grants
}

// TryAtHand grants s on the spot if it heads its home's queue and its
// bottles are at hand (see Pump), wherever they sit, and reports whether
// s is Drinking. It lets a submitter skip the pump, and the home its
// hunger, for a session nothing contends with.
func (a *Arbiter) TryAtHand(s *Session) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.status == Pending && a.queues[s.Home][0] == s && a.admit(s, false) {
		a.grant(s)
	}
	return s.status == Drinking
}

// admit reports whether s, the head of its home's queue, may be granted
// now — by its home's meal when eats, else at hand — and brings every
// bottle of an admitted session to the home. The at-hand rule is decided
// for the whole set before any bottle moves, so a session that fails it
// on its second bottle has not taken its first.
//
// requires mu
func (a *Arbiter) admit(s *Session, eats bool) bool {
	if eats && a.collect(s) {
		return true
	}
	if !a.atHandOK(s) {
		return false
	}
	a.atHand++
	crossed := false
	for _, b := range s.Bottles {
		if a.holder[b] != s.Home {
			a.holder[b] = s.Home
			crossed = true
		}
	}
	if crossed {
		a.surrendered++
	}
	return true
}

// grant turns the head of its home's queue into a Drinking session
// attached to its bottles, all of which admit left free and at the home.
//
// requires mu
func (a *Arbiter) grant(s *Session) {
	for _, b := range s.Bottles {
		a.user[b] = s
	}
	s.status = Drinking
	a.active++
	close(s.granted)
	a.queues[s.Home] = a.queues[s.Home][1:]
	if a.OnGrant != nil {
		a.OnGrant(s)
	}
}

// collect reports whether every bottle of s is free, moving free
// bottles to the home node as it checks (partial collection mirrors the
// drinkers reduction: a surrendered bottle travels even if the whole
// set is not yet available). Only a meal of s.Home licenses the call.
//
// requires mu
func (a *Arbiter) collect(s *Session) bool {
	all := true
	for _, b := range s.Bottles {
		if a.user[b] != nil {
			all = false
			continue
		}
		a.holder[b] = s.Home
	}
	return all
}

// inUse reports whether a Drinking session is attached to bottle b, and
// askedFor whether the endpoint p that holds b has a queued session for
// it. Variables only so the mutation tests can take either check out of
// the at-hand rule and show that an oracle notices.
var (
	inUse    = func(a *Arbiter, b int) bool { return a.user[b] != nil }
	askedFor = func(a *Arbiter, p graph.ProcID, b int) bool { return a.wanted(p, b) }
)

// atHandOK is the at-hand rule, the drinkers surrender rule read from the
// requester's side: s needs no meal when its home is alive and every
// bottle it needs is free and either
//
//   - at the home, with no session queued for it at the bottle's other
//     endpoint if that one is alive (a waiter stranded at a dead or
//     departed peer is owed nothing), or
//   - at the other endpoint, which is alive and has no session queued for
//     it: a philosopher surrenders on request a bottle it neither drinks
//     from nor thirsts for. A bottle at a dead or departed peer is not
//     surrendered by anybody; it waits for the dining round.
//
// Either way a queued session at one live endpoint keeps the bottle from
// meal-less grants at the other, so a bottle both ends ask for takes the
// dining round and its fairness. atHandOK moves nothing.
//
// requires mu
func (a *Arbiter) atHandOK(s *Session) bool {
	if a.Alive == nil || !a.Alive(s.Home) {
		return false
	}
	for _, b := range s.Bottles {
		if inUse(a, b) {
			return false
		}
		peer := a.g.Edges()[b].Other(s.Home)
		if a.holder[b] == s.Home {
			if a.wanted(peer, b) && a.Alive(peer) {
				return false
			}
		} else if askedFor(a, peer, b) || !a.Alive(peer) {
			return false
		}
	}
	return true
}

// wanted reports whether a session queued at node p needs bottle b.
//
// requires mu
func (a *Arbiter) wanted(p graph.ProcID, b int) bool {
	for _, s := range a.queues[p] {
		if slices.Contains(s.Bottles, b) {
			return true
		}
	}
	return false
}
