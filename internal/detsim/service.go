package detsim

import (
	"fmt"
	"slices"

	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
)

// ServiceConfig describes a deterministic lock-service run: the fair
// diners schedule of Config, plus a synthetic client workload driving
// the session arbiter, with every lifecycle event recorded in a
// lockservice.History for post-run linearizability checking.
type ServiceConfig struct {
	// Graph, Seed, Rounds, Crashes, EatEvents, LossRate, Trace, and
	// Source mean what they mean in Config. Hungry is owned by the
	// workload (queue-driven), so it is not configurable here.
	Graph     *graph.Graph
	Seed      int64
	Rounds    int
	Crashes   []Crash
	EatEvents int
	LossRate  float64
	Trace     bool
	Source    Source

	// SubmitPercent is the per-round chance (0..100) that a new session
	// is submitted at a drawn home node (default 60).
	SubmitPercent int
	// MaxHoldRounds bounds how long a granted session is held before
	// release (default 4: the core's home choice spreads single-lock
	// clients over both ends of their edge, and shorter holds leave too
	// little contention at both ends for the starvation oracle to see a
	// demand-blind surrender).
	MaxHoldRounds int
	// QueueLimit is the arbiter's per-node queue capacity (default 8).
	QueueLimit int
}

// ServiceResult is the outcome of a deterministic lock-service run.
type ServiceResult struct {
	// Result is the underlying diners run outcome. Its liveness oracle
	// is disabled: service hunger is demand-driven, so a far node with
	// no queued sessions legitimately never eats.
	*Result
	// Submitted, Granted, Released, and Canceled count session events.
	Submitted, Granted, Released, Canceled int
	// AtHand is how many of the grants needed no meal: every bottle was
	// free and either at the session's home with nobody across the edge
	// asking, or surrendered by a live peer with nobody there asking;
	// Surrendered counts the grants of the second kind.
	AtHand, Surrendered int
	// HistoryViolations is the linearizability checker's output over the
	// recorded history (nil means every grant was legal).
	HistoryViolations []string
	// StarvationViolations lists the sessions that were passed over
	// without a meal (see overtaking); nil means none was.
	StarvationViolations []string
}

// Failed reports whether the run violated any checked property.
func (r *ServiceResult) Failed() bool {
	return len(r.SafetyViolations) > 0 || len(r.HistoryViolations) > 0 || len(r.StarvationViolations) > 0 ||
		len(r.LeaseViolations) > 0
}

// overtaking is the service run's starvation check. Meals are rationed
// by the diners layer — between two meals of a node each hungry live
// neighbor gets its turn — so a queued session is passed over by meals
// only boundedly often. Nothing rations a meal-less grant: a session
// queued at a live home while a bottle it asks for keeps being granted at
// the bottle's other end without a meal is never served. The at-hand rule
// therefore owes every such session that this happens not even once, and
// the oracle holds it to that at the instant of each grant.
type overtaking struct {
	g      *graph.Graph
	nw     *msgpass.Network
	round  int
	queued []*drinkers.Session // submit order
	found  []string
}

// tap chains the oracle behind the arbiter's lifecycle hooks, which run
// under the arbiter's mutex at the instant of each transition.
func (o *overtaking) tap(arb *drinkers.Arbiter) {
	onSubmit, onGrant, onCancel := arb.OnSubmit, arb.OnGrant, arb.OnCancel
	leave := func(s *drinkers.Session) {
		if i := slices.Index(o.queued, s); i >= 0 {
			o.queued = slices.Delete(o.queued, i, i+1)
		}
	}
	arb.OnSubmit = func(s *drinkers.Session) {
		onSubmit(s)
		o.queued = append(o.queued, s)
	}
	arb.OnCancel = func(s *drinkers.Session) {
		onCancel(s)
		leave(s)
	}
	arb.OnGrant = func(s *drinkers.Session) {
		onGrant(s)
		leave(s)
		if lockservice.Eating(o.nw, s.Home) {
			return
		}
		for _, w := range o.queued {
			if w.Home == s.Home || !lockservice.Alive(o.nw, w.Home) {
				continue
			}
			for _, b := range s.Bottles {
				if slices.Contains(w.Bottles, b) {
					o.found = append(o.found, fmt.Sprintf(
						"round %d: node %d was granted bottle %v without a meal past a session queued for it at live node %d",
						o.round, s.Home, o.g.Edges()[b], w.Home))
				}
			}
		}
	}
}

// RunService executes one deterministic lock-service run over a
// lockservice.ShardCore, the Server's lease lifecycle. Each round, after
// the diners substrate steps: clients whose hold ended release, a
// workload draw may submit a client (or withdraw a queued one), the core
// pumps, and every client whose session was granted takes its lease.
//
// The step's eating oracle excludes dead and departed nodes but trusts
// the published state of a node inside a malicious window: a server
// reading garbage snapshots. The arbiter's per-bottle accounting must
// keep the history legal even under a lying oracle — that is the
// safety-by-construction claim the history checker verifies.
func RunService(cfg ServiceConfig) *ServiceResult {
	if cfg.SubmitPercent <= 0 {
		cfg.SubmitPercent = 60
	}
	if cfg.MaxHoldRounds <= 0 {
		cfg.MaxHoldRounds = 4
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 8
	}
	hungry := make([]bool, cfg.Graph.N()) // demand arrives with sessions
	r := newRunner(Config{
		Graph:     cfg.Graph,
		Seed:      cfg.Seed,
		Rounds:    cfg.Rounds,
		Crashes:   cfg.Crashes,
		Hungry:    hungry,
		EatEvents: cfg.EatEvents,
		LossRate:  cfg.LossRate,
		Trace:     cfg.Trace,
		Source:    cfg.Source,
	})
	r.boot()
	hist := lockservice.NewHistory()
	core := r.attach(0, cfg.QueueLimit, hist)
	nw := r.d.Network()
	g := cfg.Graph
	passed := &overtaking{g: g, nw: nw}
	passed.tap(core.Arbiter())

	res := &ServiceResult{}
	var clients []*client // in submit order
	for t := 0; t < r.cfg.Rounds; t++ {
		r.fairRound(t)
		passed.round = t
		var queued []*client
		for _, c := range clients {
			switch {
			case c.done:
			case c.id == "":
				queued = append(queued, c)
			case c.release <= t:
				c.end()
				res.Released++
				r.event("t%d release home=%d", t, c.sess.Home)
			}
		}
		// Workload draw: usually submit, occasionally withdraw a queued
		// client (both decisions and all parameters from the source).
		if r.src.Intn(100) < cfg.SubmitPercent {
			home := graph.ProcID(r.src.Intn(g.N()))
			incident := g.IncidentEdgeIndices(home)
			want := 1 + r.src.Intn(len(incident))
			keys := make([]string, 0, want)
			for _, i := range perm(r.src, len(incident))[:want] {
				keys = append(keys, lockservice.EdgeName(g.Edges()[incident[i]]))
			}
			if c := r.submit(keys, 0, t); c != nil {
				clients = append(clients, c)
				res.Submitted++
				r.event("t%d submit home=%d bottles=%v", t, c.sess.Home, c.sess.Bottles)
			}
		} else if len(queued) > 0 && r.src.Intn(4) == 0 {
			c := queued[r.src.Intn(len(queued))]
			c.end()
			res.Canceled++
			r.event("t%d cancel home=%d", t, c.sess.Home)
		}
		core.Pump()
		for _, c := range clients {
			if c.done || !c.granted() {
				continue
			}
			hold := 1 + r.src.Intn(cfg.MaxHoldRounds)
			c.lease(0)
			c.release = t + hold
			res.Granted++
			r.event("t%d grant home=%d bottles=%v hold=%d", t, c.sess.Home, c.sess.Bottles, hold)
		}
	}
	// Shutdown drain: release live grants, withdraw still-queued clients,
	// so every submitted session has a recorded end.
	drain(clients, &res.Released, &res.Canceled)
	r.drained()
	r.baseline = nil // demand-driven hunger invalidates the locality oracle
	res.Result = r.finish(true, r.cfg.Rounds)
	res.HistoryViolations = hist.Check(g)
	res.StarvationViolations = passed.found
	res.AtHand, res.Surrendered = int(core.Arbiter().AtHandGrants()), int(core.Arbiter().SurrenderedGrants())
	return res
}
