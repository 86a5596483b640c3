// Package drinkers layers Chandy & Misra's drinking-philosophers problem
// (the paper's reference [5], the origin of its priority-graph idea) on
// top of the malicious-crash diners core, demonstrating downstream use:
// because conflict arbitration is delegated to the paper's algorithm, the
// drinkers inherit its stabilization and its crash failure locality.
//
// The problem: each edge carries a bottle; a drinking session needs some
// subset of the process's incident bottles (different sessions may need
// different subsets); two neighbors must never drink simultaneously from
// sessions that share a bottle.
//
// The classic reduction: a thirsty process becomes hungry in an
// underlying diners instance. Eating in diners is a temporary, exclusive
// license to collect bottles: an eater's requests beat its neighbors'
// (no two neighbors eat at once, so no two competing collectors clash),
// a non-drinking holder must surrender a requested bottle to an eating
// requester, and once the collector holds its session's bottles it
// drinks and releases the diners level. Diners liveness gives drinkers
// liveness; diners failure locality gives drinkers failure locality.
//
// The license is only ever needed to take a bottle from somebody who
// wants it too. A bottle stays with the process that last drank from it,
// so a thirsty process that already holds every bottle of its session,
// none of them requested from across its edge, drinks without becoming
// hungry at all; and a process that neither drinks from a bottle nor
// thirsts for it surrenders it on request, so a session whose missing
// bottles sit with live neighbors that have no use for them does not
// become hungry either — Chandy & Misra's own rules, and the two halves
// of the Arbiter's at-hand rule. That makes a bottle's position
// (Arbiter.Holder) load-bearing state, not a display value: it decides
// whose queued sessions can hold the bottle back, and it changes only
// inside the collector's meal or at such a surrender.
package drinkers

import (
	"fmt"
	"math/rand"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
	"mcdp/internal/workload"
)

// SessionSource decides, per process, whether it wants to start a
// drinking session at the given step and which incident bottles (by
// neighbor) the session needs. Returning an empty set means no thirst.
type SessionSource interface {
	// Next returns the bottle set (as neighbor IDs) for p's next session
	// at the given step; empty means p is not thirsty now.
	Next(p graph.ProcID, step int64) []graph.ProcID
}

// RandomSessions picks a uniformly random non-empty subset of incident
// bottles with probability prob per consultation.
type RandomSessions struct {
	g    *graph.Graph
	prob float64
	rng  *rand.Rand
}

// NewRandomSessions returns a stochastic session source.
func NewRandomSessions(g *graph.Graph, prob float64, seed int64) *RandomSessions {
	return &RandomSessions{g: g, prob: prob, rng: rand.New(rand.NewSource(seed))}
}

// Next implements SessionSource.
func (r *RandomSessions) Next(p graph.ProcID, _ int64) []graph.ProcID {
	if r.rng.Float64() >= r.prob {
		return nil
	}
	nbrs := r.g.Neighbors(p)
	if len(nbrs) == 0 {
		return nil
	}
	var set []graph.ProcID
	for _, q := range nbrs {
		if r.rng.Intn(2) == 0 {
			set = append(set, q)
		}
	}
	if len(set) == 0 {
		set = append(set, nbrs[r.rng.Intn(len(nbrs))])
	}
	return set
}

// AllBottles makes every session need every incident bottle (drinkers
// degenerate to diners).
type AllBottles struct {
	g *graph.Graph
}

// Next implements SessionSource.
func (a AllBottles) Next(p graph.ProcID, _ int64) []graph.ProcID {
	return a.g.Neighbors(p)
}

// Config describes a drinkers simulation.
type Config struct {
	// Graph is the topology (a bottle per edge). Required.
	Graph *graph.Graph
	// Sessions drives thirst. Defaults to NewRandomSessions(g, 0.8, Seed).
	Sessions SessionSource
	// Seed drives the underlying diners simulation.
	Seed int64
	// DiameterOverride passes through to the diners substrate (0 = safe
	// bound n-1).
	DiameterOverride int
	// DrinkSpan is how many diners steps a drinking session lasts
	// (default 3).
	DrinkSpan int64
}

// Sim is a running drinkers simulation over a diners substrate.
type Sim struct {
	g        *graph.Graph
	w        *sim.World
	sessions SessionSource
	span     int64

	thirsty  []bool
	need     [][]graph.ProcID // session bottle sets (neighbors)
	drinking []bool
	until    []int64 // step when the current drink ends
	holder   []graph.ProcID
	drinks   []int64
}

// New builds a drinkers simulation. The diners substrate runs the
// paper's algorithm with the safe depth bound.
func New(cfg Config) *Sim {
	if cfg.Graph == nil {
		panic("drinkers: Config.Graph is required")
	}
	if cfg.Sessions == nil {
		cfg.Sessions = NewRandomSessions(cfg.Graph, 0.8, cfg.Seed)
	}
	if cfg.DrinkSpan <= 0 {
		cfg.DrinkSpan = 3
	}
	bound := cfg.DiameterOverride
	if bound == 0 {
		bound = sim.SafeDepthBound(cfg.Graph)
	}
	n := cfg.Graph.N()
	d := &Sim{
		g:        cfg.Graph,
		sessions: cfg.Sessions,
		span:     cfg.DrinkSpan,
		thirsty:  make([]bool, n),
		need:     make([][]graph.ProcID, n),
		drinking: make([]bool, n),
		until:    make([]int64, n),
		holder:   make([]graph.ProcID, cfg.Graph.EdgeCount()),
		drinks:   make([]int64, n),
	}
	for i, e := range cfg.Graph.Edges() {
		d.holder[i] = e.A
	}
	// The diners layer's hunger IS the drinkers layer's thirst: a
	// process needs to eat exactly while it is thirsty and not yet
	// drinking. The closure reads this Sim's state; the whole engine is
	// single-threaded, as the model requires.
	d.w = sim.NewWorld(sim.Config{
		Graph:     cfg.Graph,
		Algorithm: core.NewMCDP(),
		Workload: workload.Func("thirst", func(p graph.ProcID, _ int64) bool {
			return d.thirsty[p] && !d.drinking[p]
		}),
		Seed:             cfg.Seed,
		DiameterOverride: bound,
	})
	return d
}

// World exposes the diners substrate (for fault injection and
// inspection).
func (d *Sim) World() *sim.World { return d.w }

// Drinks returns completed drinking sessions per process.
func (d *Sim) Drinks() []int64 { return append([]int64(nil), d.drinks...) }

// Thirsty reports whether p currently wants (or is in) a session.
func (d *Sim) Thirsty(p graph.ProcID) bool { return d.thirsty[p] }

// Drinking reports whether p is currently drinking.
func (d *Sim) Drinking(p graph.ProcID) bool { return d.drinking[p] }

// Holder returns which endpoint currently holds the bottle on edge e.
func (d *Sim) Holder(e graph.Edge) graph.ProcID {
	i := d.g.EdgeIndex(e.A, e.B)
	if i < 0 {
		panic(fmt.Sprintf("drinkers: no edge %v", e))
	}
	return d.holder[i]
}

// Step advances the simulation: one diners action, then the bottle
// rules. It reports false when the diners substrate has terminated and
// no thirst remains.
func (d *Sim) Step() bool {
	step := d.w.Steps()
	// New thirst arrives.
	for p := 0; p < d.g.N(); p++ {
		pid := graph.ProcID(p)
		if d.thirsty[p] || d.drinking[p] || d.w.Dead(pid) {
			continue
		}
		if set := d.sessions.Next(pid, step); len(set) > 0 {
			d.thirsty[p] = true
			d.need[p] = set
		}
	}
	// One diners action (idling if nothing is enabled: thirst may arrive
	// later).
	if _, ok := d.w.Step(); !ok {
		d.w.RunIdling(1)
	}
	d.applyBottleRules()
	return true
}

// Run advances n steps.
func (d *Sim) Run(n int64) {
	for i := int64(0); i < n; i++ {
		d.Step()
	}
}

// applyBottleRules performs the collect/drink/release transitions.
func (d *Sim) applyBottleRules() {
	now := d.w.Steps()
	for p := 0; p < d.g.N(); p++ {
		pid := graph.ProcID(p)
		if d.w.Dead(pid) {
			continue // a dead process freezes; its bottles stay put
		}
		// Finish an expired drink: release the session and the diners
		// level (the eater exits on its own once hunger is gone).
		if d.drinking[p] && now >= d.until[p] {
			d.drinking[p] = false
			d.thirsty[p] = false
			d.need[p] = nil
		}
		if !d.thirsty[p] || d.drinking[p] {
			continue
		}
		// Only an eating process may force bottle transfers: eating is
		// exclusive among neighbors, so at most one side of any bottle
		// collects at a time.
		if d.w.State(pid) != core.Eating {
			continue
		}
		if d.collect(pid) {
			d.drinking[p] = true
			d.until[p] = now + d.span
			d.drinks[p]++
		}
	}
}

// collect tries to gather all of p's needed bottles; it reports whether
// p now holds every one. A holder surrenders a bottle unless it is
// drinking from a session that needs it.
func (d *Sim) collect(p graph.ProcID) bool {
	all := true
	for _, q := range d.need[p] {
		i := d.g.EdgeIndex(p, q)
		if i < 0 {
			continue // session names a non-neighbor; ignore
		}
		if d.holder[i] == p {
			continue
		}
		if d.drinking[q] && d.needs(q, p) {
			all = false // the neighbor is drinking with it; wait
			continue
		}
		d.holder[i] = p // surrendered (q is not drinking with it)
	}
	return all
}

// needs reports whether q's current session includes the bottle shared
// with r.
func (d *Sim) needs(q, r graph.ProcID) bool {
	for _, x := range d.need[q] {
		if x == r {
			return true
		}
	}
	return false
}

// ConflictingDrinkers returns pairs of neighbors that are drinking
// simultaneously from sessions sharing their bottle — safety violations.
func (d *Sim) ConflictingDrinkers() []graph.Edge {
	var bad []graph.Edge
	for _, e := range d.g.Edges() {
		if d.drinking[e.A] && d.drinking[e.B] && d.needs(e.A, e.B) && d.needs(e.B, e.A) {
			bad = append(bad, e)
		}
	}
	return bad
}
