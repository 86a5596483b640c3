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
	// release (default 3).
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
	return len(r.SafetyViolations) > 0 || len(r.HistoryViolations) > 0 || len(r.StarvationViolations) > 0
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

// grantedSession tracks a live grant until its scheduled release round.
type grantedSession struct {
	s       *drinkers.Session
	release int
}

// RunService executes one deterministic lock-service run. Each round,
// after the diners substrate steps: due grants are released, a workload
// draw may submit (or cancel) a session, and the arbiter advances by
// lockservice.PumpStep — the very step the Server runs on its
// network's event loop and after every arbiter change.
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
		cfg.MaxHoldRounds = 3
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
	arb := drinkers.NewArbiter(cfg.Graph, cfg.QueueLimit)
	hist := lockservice.NewHistory()
	hist.Tap(arb)
	nw := r.d.Network()
	lockservice.Couple(arb, nw)
	g := cfg.Graph
	passed := &overtaking{g: g, nw: nw}
	passed.tap(arb)

	res := &ServiceResult{}
	var live []grantedSession
	var pendingSubs []*drinkers.Session
	for t := 0; t < r.cfg.Rounds; t++ {
		r.fairRound(t)
		passed.round = t
		// Release grants whose hold expired.
		kept := live[:0]
		for _, gs := range live {
			if gs.release <= t {
				arb.Release(gs.s)
				res.Released++
				r.event("t%d release home=%d", t, gs.s.Home)
				continue
			}
			kept = append(kept, gs)
		}
		live = kept
		// Workload draw: usually submit, occasionally cancel a pending
		// session (both decisions and all parameters from the source).
		if r.src.Intn(100) < cfg.SubmitPercent {
			home := graph.ProcID(r.src.Intn(g.N()))
			incident := g.IncidentEdgeIndices(home)
			want := 1 + r.src.Intn(len(incident))
			bottles := make([]int, 0, want)
			for _, i := range perm(r.src, len(incident))[:want] {
				bottles = append(bottles, incident[i])
			}
			if s, err := arb.Submit(home, bottles); err == nil {
				pendingSubs = append(pendingSubs, s)
				res.Submitted++
				r.event("t%d submit home=%d bottles=%v", t, home, bottles)
			}
		} else if len(pendingSubs) > 0 && r.src.Intn(4) == 0 {
			i := r.src.Intn(len(pendingSubs))
			if arb.Cancel(pendingSubs[i]) {
				res.Canceled++
				r.event("t%d cancel home=%d", t, pendingSubs[i].Home)
			}
			pendingSubs = append(pendingSubs[:i], pendingSubs[i+1:]...)
		}
		// Advance the arbiter and schedule holds for its grants.
		for _, s := range lockservice.PumpStep(arb, nw) {
			res.Granted++
			hold := 1 + r.src.Intn(cfg.MaxHoldRounds)
			live = append(live, grantedSession{s: s, release: t + hold})
			r.event("t%d grant home=%d bottles=%v hold=%d", t, s.Home, s.Bottles, hold)
			for i, ps := range pendingSubs {
				if ps == s {
					pendingSubs = append(pendingSubs[:i], pendingSubs[i+1:]...)
					break
				}
			}
		}
	}
	// Shutdown drain: release live grants, cancel still-pending queue
	// entries, so every submitted session has a recorded end.
	for _, gs := range live {
		arb.Release(gs.s)
		res.Released++
	}
	for _, s := range pendingSubs {
		if arb.Cancel(s) {
			res.Canceled++
		}
	}
	r.baseline = nil // demand-driven hunger invalidates the locality oracle
	res.Result = r.finish(true, r.cfg.Rounds)
	res.HistoryViolations = hist.Check(g)
	res.StarvationViolations = passed.found
	res.AtHand, res.Surrendered = int(arb.AtHandGrants()), int(arb.SurrenderedGrants())
	return res
}
