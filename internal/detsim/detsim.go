// Package detsim is a deterministic simulation harness for the
// message-passing diners runtime and the lock service built on it.
//
// The production runtime (internal/msgpass) schedules nodes with
// goroutines, channels, and wall-clock tickers, so a failing run is
// unrepeatable: rerunning it reshuffles every interleaving. detsim runs
// the very same protocol code — via msgpass's driven mode — as a
// single-threaded event loop under a virtual clock, with every schedule
// decision (node step order, message delivery order, crash and
// partition timing) drawn from one Source. A seed therefore names a
// complete execution: same seed, byte-identical event trace, checkable
// by hash. Violating seeds found by sweeps or fuzzers replay exactly
// under cmd/detsim -seed.
//
// Two scheduling modes:
//
//   - fair (Run): round-based — every live node steps once per round in
//     a drawn permutation, and every frame pending at the round's start
//     is delivered within the round. Weak fairness holds, so both the
//     safety oracle and the liveness/failure-locality oracle are valid.
//   - adversarial (RunAdversarial): each step the source freely picks
//     "tick some node" or "make some channel deliver" (channels stay
//     FIFO, as the runtime's Go channels are; the adversary controls
//     progress and loss, not reordering). No fairness is promised, so
//     only safety is checked — which is precisely the property that
//     must survive arbitrary schedules.
//
// Oracles: after every atomic step the eating-exclusion predicate of
// internal/spec runs against the driven state; dead nodes and nodes
// inside a malicious-crash window are exempt (a garbage Eating variable
// is not an eating session — the paper's safety is "two neighbors eat
// together only if both crashed"). At the end the interval-based
// session checker cross-checks on virtual timestamps, and in fair mode
// the failure-locality oracle requires every hungry node at distance
// >= 3 from all crash sites to keep completing meals after the crashes
// (the paper's failure locality is 2).
package detsim

import (
	"fmt"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
	"mcdp/internal/sim"
	"mcdp/internal/spec"
)

// Crash schedules one fault injection.
type Crash struct {
	// Node is the victim.
	Node graph.ProcID
	// Round is when the fault fires: a fair-mode round index, or an
	// adversarial-mode step index.
	Round int
	// Steps > 0 gives the node a malicious window of that many garbage
	// events before it halts; Steps <= 0 is a benign kill.
	Steps int
}

// Partition isolates one node for a window of rounds (fair mode) or
// steps (adversarial mode): frames to and from it are lost in transit.
type Partition struct {
	// Node is the isolated node.
	Node graph.ProcID
	// From and Until bound the window as [From, Until).
	From, Until int
}

// Restart schedules one node revival: at the given round (fair mode)
// or step (adversarial mode) the node reboots into a new incarnation,
// either clean or with arbitrary garbage state.
type Restart struct {
	// Node is the revived node.
	Node graph.ProcID
	// Round is when the restart fires.
	Round int
	// Garbage reboots with arbitrary state instead of the legitimate
	// initial state.
	Garbage bool
}

// Leave schedules a membership splice-out: at the given round (fair
// mode) or step (adversarial mode) the node departs, its edges — and
// any tokens they carried — vanishing with it. Unlike a kill, a leave
// can never pin a token: waiters blocked on the leaver are freed, which
// is what the displaced-waiter oracle checks.
type Leave struct {
	// Node is the departing node.
	Node graph.ProcID
	// Round is when the leave fires.
	Round int
}

// Join schedules a membership splice-in. Node >= 0 readmits that
// departed node; Node < 0 adds a brand-new process (its ID is assigned
// densely at fire time). Neighbors lists the peers to splice edges to;
// for a readmission nil means "all original-topology neighbors still
// present at fire time". Every new edge boots by the humble-reboot
// rule, so a join can never forge a token.
type Join struct {
	// Node is the rejoining node, or -1 for a fresh AddProcess.
	Node graph.ProcID
	// Neighbors are the peers to splice to (see above for nil).
	Neighbors []graph.ProcID
	// Round is when the join fires.
	Round int
}

// Recovery reports how one restarted node fared: how many rounds after
// its restart it completed its next meal (-1 if it never did before the
// run ended). Fair mode only.
type Recovery struct {
	// Node is the restarted node.
	Node graph.ProcID
	// Round is the restart round.
	Round int
	// RecoveredAfter is rounds from restart to the next completed meal,
	// -1 if none.
	RecoveredAfter int
}

// Config describes one deterministic run.
type Config struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// Seed names the run; it drives the schedule source (unless Source
	// overrides it), the per-node protocol PRNGs, and loss decisions.
	Seed int64
	// Rounds is the fair-mode round count (default 200).
	Rounds int
	// MaxSteps is the adversarial-mode step count (default 2048).
	MaxSteps int
	// Crashes is the fault plan.
	Crashes []Crash
	// Partitions is the partition plan.
	Partitions []Partition
	// Restarts is the revival plan.
	Restarts []Restart
	// Leaves and Joins are the membership-churn plan.
	Leaves []Leave
	Joins  []Join
	// DiameterOverride widens the substrate's propagation-depth bound;
	// 0 derives it from the graph, plus two per planned AddProcess since
	// splice-ins can deepen the conflict graph mid-run.
	DiameterOverride int
	// Faults, when non-nil, injects per-frame transport faults (drop,
	// duplicate, corrupt, delay) on the delivery path. Under the driven
	// runtime the injector is consulted in deterministic order, so a
	// seeded injector (internal/chaos) makes the whole fault trace part
	// of the execution the seed names. Use a fresh injector per run —
	// its internal counter is part of the replayed state.
	Faults msgpass.FaultInjector
	// Hungry fixes needs() per node; nil means always hungry.
	Hungry []bool
	// EatEvents passes through to the substrate (default 2).
	EatEvents int
	// LossRate passes through to the substrate (frame loss).
	LossRate float64
	// Trace retains the full event trace in the result (the FNV hash is
	// always computed).
	Trace bool
	// Source overrides the schedule source; nil uses NewRand(Seed).
	Source Source
}

// Result is the outcome of one run.
type Result struct {
	// Seed echoes the run's seed.
	Seed int64
	// Rounds is how many fair rounds (or adversarial steps) executed.
	Rounds int
	// TraceHash is the FNV-1a hash over the run's events (see trace) —
	// two runs of one build are the same execution iff their hashes
	// match.
	TraceHash uint64
	// Trace is the full event trace (only with Config.Trace).
	Trace []string
	// Eats is completed meals per node.
	Eats []int64
	// SafetyViolations lists eating-exclusion violations between
	// non-crashed neighbors, deduplicated per edge.
	SafetyViolations []string
	// LocalityViolations lists hungry nodes outside failure locality 2
	// (distance >= 3 from every crash site) that stopped completing
	// meals — fair mode only.
	LocalityViolations []string
	// RestartViolations lists restarted or rejoined hungry nodes that
	// never completed another meal despite at least 20 post-restart
	// rounds — fair mode only.
	RestartViolations []string
	// ChurnViolations lists displaced waiters — live neighbors of a
	// departing node — that never completed another meal after the
	// leave freed them, given at least 20 remaining rounds — fair mode
	// only.
	ChurnViolations []string
	// LeaseViolations lists the lease oracle's findings (runs with a lease
	// core): a live lease whose home's incarnation changed since its
	// grant, or leases left after the end-of-run drain.
	LeaseViolations []string
	// Joins and Leaves count executed membership changes.
	Joins, Leaves int64
	// Recoveries reports per-restart convergence: rounds from each
	// restart to the node's next completed meal — fair mode only.
	Recoveries []Recovery
	// Steps counts atomic steps (node events + deliveries).
	Steps int64
	// Delivered counts frames delivered.
	Delivered int64
	// MessagesSent counts frames emitted by the protocol.
	MessagesSent int64
	// FaultsDropped, FaultsDuplicated, FaultsCorrupted, and
	// FaultsDelayed count the transport faults the injector landed.
	FaultsDropped, FaultsDuplicated, FaultsCorrupted, FaultsDelayed int64
}

// Failed reports whether the run violated any checked property.
func (r *Result) Failed() bool {
	return len(r.SafetyViolations) > 0 || len(r.LocalityViolations) > 0 ||
		len(r.RestartViolations) > 0 || len(r.ChurnViolations) > 0 ||
		len(r.LeaseViolations) > 0
}

// maxPending bounds the adversarial in-flight pool; overflow drops the
// oldest frame (the protocol is built to absorb loss).
const maxPending = 4096

// maxRecorded caps recorded violation strings per category.
const maxRecorded = 32

// chanKey identifies one directed channel (edge plus sender), the
// granularity at which injector delays stall delivery.
type chanKey struct {
	edge int
	from graph.ProcID
}

// runner is one in-progress deterministic run.
type runner struct {
	cfg Config
	src Source

	d  *msgpass.Driven
	rd *msgpass.DrivenReader

	vnow    time.Time
	pending []msgpass.Frame
	// window and spare are fairRound's reused buffers: this round's
	// delivery window, and the next round's held frames.
	window, spare []msgpass.Frame

	// core, when set, is the lease lifecycle over this runner's network:
	// planned restarts and leaves go through it, so it fences them, and
	// every round ends with its janitor and the lease oracle. tap, when
	// set, receives the janitor's expire events, as a Server's lease tap
	// does.
	core   *lockservice.ShardCore
	tap    func(lockservice.LeaseEvent)
	leases []string // lease-oracle violations

	tr *trace // nil when nothing reads the runner's trace

	steps     int64
	delivered int64

	crashed   []graph.ProcID
	violEdges map[graph.Edge]bool
	safety    []string

	baselineRound int
	baseline      []int64

	recoveries  []Recovery
	recovEats   []int64 // eats at restart time, parallel to recoveries
	lastRestart int

	displaced     []displaced
	churnSite     []graph.ProcID // leave victims and splice-in attach points
	joins, leaves int64

	// garbageUntil[p] is the round before which p is exempt from the
	// eating-exclusion oracle: a garbage restart boots it with arbitrary
	// variables (possibly a garbage Eating state, possibly one forged
	// token entry), and the paper promises convergence within the
	// stabilization window, not exclusion during it.
	garbageUntil []int
}

// garbageGraceRounds bounds the post-garbage-restart stabilization
// window the safety oracle tolerates, mirroring the 20-round grace the
// restart-recovery oracle already grants.
const garbageGraceRounds = 25

// displaced is one waiter freed by a leave: a live neighbor of the
// departing node at the moment its edges were dropped. The churn
// oracle requires each one to complete a meal afterwards.
type displaced struct {
	waiter graph.ProcID
	round  int
	eats   int64 // waiter's meals at leave time
}

func newRunner(cfg Config) *runner {
	if cfg.Graph == nil {
		panic("detsim: Config.Graph is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 200
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 2048
	}
	src := cfg.Source
	if src == nil {
		src = NewRand(cfg.Seed)
	}
	r := &runner{
		cfg:          cfg,
		src:          src,
		vnow:         time.Unix(0, 0).UTC(),
		tr:           newTrace(cfg.Trace),
		violEdges:    make(map[graph.Edge]bool),
		garbageUntil: make([]int, cfg.Graph.N()),
	}
	depth := cfg.DiameterOverride
	if depth <= 0 {
		depth = sim.SafeDepthBound(cfg.Graph)
		for _, jn := range cfg.Joins {
			if jn.Node < 0 {
				depth += 2 // a splice-in can lengthen shortest paths
			}
		}
	}
	r.d = msgpass.NewDriven(msgpass.Config{
		Graph:            cfg.Graph,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: depth,
		Hungry:           cfg.Hungry,
		EatEvents:        cfg.EatEvents,
		LossRate:         cfg.LossRate,
		Seed:             cfg.Seed,
		Faults:           cfg.Faults,
	}, func() time.Time { return r.vnow })
	r.rd = r.d.Reader()
	for _, c := range cfg.Crashes {
		r.crashed = append(r.crashed, c.Node)
	}
	for _, l := range cfg.Leaves {
		r.churnSite = append(r.churnSite, l.Node)
	}
	for _, jn := range cfg.Joins {
		if jn.Node >= 0 && int(jn.Node) < cfg.Graph.N() {
			r.churnSite = append(r.churnSite, jn.Node)
		}
		for _, q := range jn.Neighbors {
			if int(q) < cfg.Graph.N() {
				r.churnSite = append(r.churnSite, q)
			}
		}
	}
	// The liveness baseline splits the post-fault run in half: locality
	// is judged on whether far nodes kept eating through the second
	// half. Short post-fault runs (< 20 rounds) skip the oracle.
	last := 0
	for _, c := range cfg.Crashes {
		if c.Round > last {
			last = c.Round
		}
	}
	for _, l := range cfg.Leaves {
		if l.Round > last {
			last = l.Round
		}
	}
	for _, jn := range cfg.Joins {
		if jn.Round > last {
			last = jn.Round
		}
	}
	r.baselineRound = -1
	if cfg.Rounds-last >= 20 {
		r.baselineRound = last + (cfg.Rounds-last)/2
	}
	r.event("run %s n=%d seed=%d", cfg.Graph.Name(), cfg.Graph.N(), cfg.Seed)
	return r
}

// event records one event in the runner's trace, if it has one.
func (r *runner) event(format string, args ...any) { r.tr.event(format, args...) }

// roundTime is the virtual time one lockstep round takes: each round
// ends on a whole virtual second (see endRound), so a lease TTL of k
// roundTimes lasts k rounds.
const roundTime = time.Second

// roundEnd is the virtual instant round t ends on.
func roundEnd(t int) time.Time { return time.Unix(0, 0).UTC().Add(time.Duration(t+1) * roundTime) }

// step advances the virtual clock by one instant and counts the step.
// Every atomic step gets its own instant, so eating-session intervals
// are exact and strictly ordered.
func (r *runner) step() {
	r.vnow = r.vnow.Add(time.Millisecond)
	r.steps++
}

// applyFaults fires the crash and partition plan entries due at time t
// (a round in fair mode, a step in adversarial mode).
func (r *runner) applyFaults(t int) {
	nw := r.d.Network()
	for _, c := range r.cfg.Crashes {
		if c.Round != t {
			continue
		}
		if c.Steps > 0 {
			nw.CrashMaliciously(c.Node, c.Steps)
			r.event("t%d crash %d mal=%d", t, c.Node, c.Steps)
		} else {
			nw.Kill(c.Node)
			r.event("t%d crash %d kill", t, c.Node)
		}
	}
	for _, pt := range r.cfg.Partitions {
		if pt.From == t {
			nw.SetPartitioned(pt.Node, true)
			r.event("t%d partition %d", t, pt.Node)
		}
		if pt.Until == t {
			nw.SetPartitioned(pt.Node, false)
			r.event("t%d heal %d", t, pt.Node)
		}
	}
	for _, rs := range r.cfg.Restarts {
		if rs.Round != t {
			continue
		}
		mode := msgpass.RestartClean
		if rs.Garbage {
			mode = msgpass.RestartArbitrary
		}
		if r.core != nil {
			r.core.Restart(rs.Node, mode)
		} else {
			nw.Restart(rs.Node, mode)
		}
		r.event("t%d restart %d mode=%s", t, rs.Node, mode)
		if rs.Garbage {
			r.garbageUntil[rs.Node] = t + garbageGraceRounds
		}
		r.recoveries = append(r.recoveries, Recovery{Node: rs.Node, Round: t, RecoveredAfter: -1})
		r.recovEats = append(r.recovEats, nw.Eats()[rs.Node])
		if t > r.lastRestart {
			r.lastRestart = t
		}
	}
	for _, l := range r.cfg.Leaves {
		if l.Round != t || int(l.Node) >= nw.N() {
			continue
		}
		// Snapshot the waiters the leave will free — the leaver's live
		// neighbors in the CURRENT graph generation — before the edges
		// (and any tokens they pinned) vanish.
		var waiters []displaced
		eats := nw.Eats()
		for _, q := range nw.Graph().Neighbors(l.Node) {
			if r.rd.Dead(q) || nw.Departed(q) {
				continue
			}
			waiters = append(waiters, displaced{waiter: q, round: t, eats: eats[q]})
		}
		remove := nw.RemoveProcess
		if r.core != nil {
			remove = func(p graph.ProcID) error { _, err := r.core.Leave(p); return err }
		}
		if err := remove(l.Node); err != nil {
			r.event("t%d leave %d err", t, l.Node)
			continue
		}
		r.displaced = append(r.displaced, waiters...)
		r.leaves++
		r.event("t%d leave %d", t, l.Node)
	}
	for _, jn := range r.cfg.Joins {
		if jn.Round != t {
			continue
		}
		node := jn.Node
		if node < 0 {
			pid, err := nw.AddProcess(jn.Neighbors)
			if err != nil {
				r.event("t%d join new err", t)
				continue
			}
			for int(pid) >= len(r.garbageUntil) {
				r.garbageUntil = append(r.garbageUntil, 0)
			}
			node = pid
		} else {
			nbrs := jn.Neighbors
			if nbrs == nil {
				// Rejoin default: the original-topology neighbors still
				// present. Resolved at fire time so overlapping absence
				// windows compose — the missing edge reappears when the
				// other endpoint rejoins.
				for _, q := range r.cfg.Graph.Neighbors(node) {
					if !nw.Departed(q) {
						nbrs = append(nbrs, q)
					}
				}
			}
			if err := nw.JoinProcess(node, nbrs); err != nil {
				r.event("t%d join %d err", t, node)
				continue
			}
		}
		r.joins++
		r.event("t%d join %d", t, node)
		// A join is a clean reboot over fresh edges: judge its convergence
		// with the same recovery oracle restarts use.
		r.recoveries = append(r.recoveries, Recovery{Node: node, Round: t, RecoveredAfter: -1})
		r.recovEats = append(r.recovEats, nw.Eats()[node])
		if t > r.lastRestart {
			r.lastRestart = t
		}
	}
}

// endRound moves the virtual clock to round t's end; with a lease core
// the janitor then expires what it outlived, and the lease oracle runs.
func (r *runner) endRound(t int) {
	if end := roundEnd(t); r.vnow.Before(end) {
		r.vnow = end
	}
	if r.core == nil {
		return
	}
	evs := r.core.Expire(r.vnow)
	for _, ev := range evs {
		r.event("t%d expire %s", t, ev.ID)
		if r.tap != nil {
			r.tap(ev)
		}
	}
	if len(evs) > 0 {
		r.core.Pump()
	}
	for _, id := range r.core.StaleLeases() {
		record(&r.leases, "t%d: lease %s outlived the incarnation of its home that granted it", t, id)
	}
}

// drained is the end-of-run half of the lease oracle: after the
// harness's shutdown drain the core holds no lease.
func (r *runner) drained() {
	if n := r.core.ActiveLeases(); n != 0 {
		record(&r.leases, "%d leases still live after the shutdown drain", n)
	}
}

// exempt reports whether p is outside the safety property's scope at
// round t: crashed dead, inside a malicious window (its Eating variable
// is garbage, not a session), awaiting a lazily applied kill or reboot
// (its variables are a frozen corpse), or still stabilizing from a
// garbage restart.
func (r *runner) exempt(t int, p graph.ProcID) bool {
	return r.rd.Dead(p) || r.rd.Malicious(p) || r.rd.Halting(p) ||
		(int(p) < len(r.garbageUntil) && t < r.garbageUntil[p])
}

// checkSafety runs the eating-exclusion oracle against the current
// state, recording each violating edge once.
func (r *runner) checkSafety(t int) {
	for _, e := range spec.EatingPairs(r.rd) {
		if r.exempt(t, e.A) || r.exempt(t, e.B) {
			continue
		}
		if r.violEdges[e] {
			continue
		}
		r.violEdges[e] = true
		if len(r.safety) < maxRecorded {
			r.safety = append(r.safety,
				fmt.Sprintf("t%d: non-crashed neighbors %d and %d eating together", t, e.A, e.B))
		}
	}
}

// tick steps node p once and pools its emitted frames.
func (r *runner) tick(t int, p graph.ProcID) {
	r.step()
	frames := r.d.Tick(p)
	if r.tr != nil { // the arguments box even when event drops them
		r.event("t%d tick %d s%d dp%d", t, p, r.rd.State(p), r.rd.Depth(p))
		for _, f := range frames {
			r.event("+ %s", f)
		}
	}
	r.pending = append(r.pending, frames...)
	r.checkSafety(t)
}

// deliver hands one pending frame over and pools the responses.
func (r *runner) deliver(t int, f msgpass.Frame) {
	r.step()
	r.delivered++
	frames := r.d.Deliver(f)
	if r.tr != nil {
		r.event("t%d dlv %s", t, f)
		for _, g := range frames {
			r.event("+ %s", g)
		}
	}
	r.pending = append(r.pending, frames...)
	r.checkSafety(t)
}

// fairRound executes one fair round: faults due this round fire, every
// node steps once in a drawn permutation, then every frame that was
// pending at the round's start is delivered, channels interleaved by a
// drawn permutation (frames emitted during the round wait one round — a
// uniform one-round channel latency). Within one channel frames always
// deliver oldest-first, because per-channel FIFO is the ordering the
// K-state handshake needs (a stale counter delivered after newer frames
// can fake a second token) and the one every real transport here gives.
// Frames carrying an injector delay are held instead: each round in
// flight decrements the hold, and only frames whose hold has expired
// enter the delivery window; like the production event loop's holds,
// the hold stalls the whole channel, so frames behind a held frame wait with
// it. The reordering faults exhibit is channels overtaking one another.
// The FIFO remap costs no schedule draws.
func (r *runner) fairRound(t int) {
	r.applyFaults(t)
	window, held := r.window[:0], r.spare[:0]
	var stalled map[chanKey]bool // made at the first held frame
	for _, f := range r.pending {
		key := chanKey{edge: f.EdgeIndex(), from: f.From}
		if f.Delay > 0 || stalled[key] {
			if f.Delay > 0 {
				f.Delay--
			}
			if stalled == nil {
				stalled = make(map[chanKey]bool)
			}
			stalled[key] = true
			held = append(held, f)
			continue
		}
		window = append(window, f)
	}
	r.window, r.spare, r.pending = window, r.pending[:0], held
	// N is read from the network, not the config graph: membership joins
	// grow the roster mid-run, and every process — including retired
	// ones, whose tick is a no-op — steps once per round.
	for _, i := range perm(r.src, r.d.Network().N()) {
		r.tick(t, graph.ProcID(i))
	}
	// The window can hold several frames of one channel — a handover reply
	// emitted during a delivery shares its channel with the sender's tick
	// gossip, and injector delays pile rounds up — so each draw picks a
	// channel (that of the drawn frame) and the channel yields its oldest
	// undelivered frame (append order is send order), as RunAdversarial
	// does. Each channel is drawn once per frame it has in the window, so
	// the remap is a bijection; with one frame per channel it is the
	// identity.
	queues := make(map[chanKey][]int, len(window))
	for k, f := range window {
		key := chanKey{edge: f.EdgeIndex(), from: f.From}
		queues[key] = append(queues[key], k)
	}
	for _, i := range perm(r.src, len(window)) {
		key := chanKey{edge: window[i].EdgeIndex(), from: window[i].From}
		j := queues[key][0]
		queues[key] = queues[key][1:]
		r.deliver(t, window[j])
	}
	r.endRound(t)
	if t == r.baselineRound {
		r.baseline = r.d.Network().Eats()
		r.event("t%d baseline %v", t, r.baseline)
	}
	if len(r.recoveries) > 0 {
		eats := r.d.Network().Eats()
		for i := range r.recoveries {
			rc := &r.recoveries[i]
			if rc.RecoveredAfter < 0 && rc.Round <= t && eats[rc.Node] > r.recovEats[i] {
				rc.RecoveredAfter = t - rc.Round
				r.event("t%d recovered %d after %d", t, rc.Node, rc.RecoveredAfter)
			}
		}
	}
}

// livenessExempt reports whether node p is excused from the locality
// oracle: within distance 2 of a crash site (the tolerated locality),
// not hungry, within distance 2 of a partition whose window reaches
// into the measured half, or within distance 2 of a churn site (a
// leave victim or splice-in attach point — membership changes disturb
// exactly the edges they splice, the same locality the paper grants
// crashes).
func (r *runner) livenessExempt(p graph.ProcID) bool {
	if r.cfg.Hungry != nil && !r.cfg.Hungry[p] {
		return true
	}
	g := r.cfg.Graph
	for _, c := range r.crashed {
		if d := g.Dist(p, c); d >= 0 && d <= 2 {
			return true
		}
	}
	for _, pt := range r.cfg.Partitions {
		if pt.Until > r.baselineRound {
			if d := g.Dist(p, pt.Node); d >= 0 && d <= 2 {
				return true
			}
		}
	}
	for _, c := range r.churnSite {
		if int(c) >= g.N() {
			continue
		}
		if d := g.Dist(p, c); d >= 0 && d <= 2 {
			return true
		}
	}
	return false
}

// disturbedAfter reports whether node p is hit by another scheduled
// fault at or after the given round — a re-crash, a partition window
// reaching past it, or its own departure voids the recovery promise
// for that restart.
func (r *runner) disturbedAfter(p graph.ProcID, round int) bool {
	for _, c := range r.cfg.Crashes {
		if c.Node == p && c.Round >= round {
			return true
		}
	}
	for _, pt := range r.cfg.Partitions {
		if pt.Node == p && pt.Until > round {
			return true
		}
	}
	for _, l := range r.cfg.Leaves {
		if l.Node == p && l.Round >= round {
			return true
		}
	}
	return false
}

// finish closes sessions, runs the end-of-run oracles, and assembles
// the result.
func (r *runner) finish(fair bool, executed int) *Result {
	r.d.Finish()
	nw := r.d.Network()
	res := &Result{
		Seed:         r.cfg.Seed,
		Rounds:       executed,
		TraceHash:    r.tr.sum(),
		Trace:        r.tr.lines,
		Eats:         nw.Eats(),
		Steps:        r.steps,
		Delivered:    r.delivered,
		MessagesSent: nw.MessagesSent(),
	}
	res.FaultsDropped, res.FaultsDuplicated, res.FaultsCorrupted, res.FaultsDelayed = nw.FaultsInjected()
	res.SafetyViolations = r.safety
	res.LeaseViolations = r.leases
	// Interval cross-check on virtual timestamps: sessions only open on
	// legitimate enter transitions (crash closes them), so any overlap
	// between live neighbors the per-step oracle somehow missed shows
	// here.
	for _, s := range nw.OverlappingNeighborSessions() {
		if len(res.SafetyViolations) >= maxRecorded {
			break
		}
		res.SafetyViolations = append(res.SafetyViolations, "session overlap: "+s)
	}
	if fair && r.baseline != nil {
		final := res.Eats
		for p := 0; p < r.cfg.Graph.N(); p++ {
			pid := graph.ProcID(p)
			if r.livenessExempt(pid) {
				continue
			}
			if final[p] <= r.baseline[p] {
				res.LocalityViolations = append(res.LocalityViolations,
					fmt.Sprintf("node %d (distance >= 3 from every crash) ate %d..%d: starved after round %d",
						p, r.baseline[p], final[p], r.baselineRound))
			}
		}
	}
	// Restart-recovery oracle: a revived hungry node must complete a
	// meal again, given at least 20 post-restart rounds to stabilize.
	// Joins feed the same oracle (a join is a clean reboot over fresh
	// edges). Processes added mid-run under an explicit Hungry map boot
	// non-hungry, hence exempt.
	if fair && len(r.recoveries) > 0 {
		res.Recoveries = r.recoveries
		if executed-r.lastRestart >= 20 {
			for _, rc := range r.recoveries {
				if rc.RecoveredAfter >= 0 {
					continue
				}
				if r.cfg.Hungry != nil && (int(rc.Node) >= len(r.cfg.Hungry) || !r.cfg.Hungry[rc.Node]) {
					continue
				}
				if r.disturbedAfter(rc.Node, rc.Round) {
					continue // re-crashed, partitioned, or departed post-restart: no promise
				}
				res.RestartViolations = append(res.RestartViolations,
					fmt.Sprintf("node %d restarted at round %d never ate again (%d rounds left)",
						rc.Node, rc.Round, executed-rc.Round))
			}
		}
	}
	res.Joins, res.Leaves = r.joins, r.leaves
	// Churn oracle: a waiter displaced by a leave was freed, not harmed —
	// the leave dropped the edge (and any token it pinned), so the waiter
	// must complete another meal, given at least 20 remaining rounds.
	if fair {
		nw := r.d.Network()
		g := r.cfg.Graph
		for _, dw := range r.displaced {
			if executed-dw.round < 20 {
				continue
			}
			if r.cfg.Hungry != nil && (int(dw.waiter) >= len(r.cfg.Hungry) || !r.cfg.Hungry[dw.waiter]) {
				continue
			}
			if nw.Departed(dw.waiter) || r.rd.Dead(dw.waiter) {
				continue // itself left or crashed: no promise
			}
			if r.disturbedAfter(dw.waiter, dw.round) {
				continue
			}
			near := false
			if int(dw.waiter) < g.N() {
				for _, c := range r.crashed {
					if d := g.Dist(dw.waiter, c); d >= 0 && d <= 2 {
						near = true // inside a crash's locality radius
						break
					}
				}
			}
			if near {
				continue
			}
			if len(res.ChurnViolations) < maxRecorded && res.Eats[dw.waiter] <= dw.eats {
				res.ChurnViolations = append(res.ChurnViolations,
					fmt.Sprintf("waiter %d displaced by leave at round %d never ate again (%d rounds left)",
						dw.waiter, dw.round, executed-dw.round))
			}
		}
	}
	return res
}

// boot starts the substrate and pools its first frames.
func (r *runner) boot() {
	for _, f := range r.d.Boot() {
		r.event("+ %s", f)
		r.pending = append(r.pending, f)
	}
}

// Run executes one fair deterministic run.
func Run(cfg Config) *Result {
	r := newRunner(cfg)
	r.boot()
	for t := 0; t < r.cfg.Rounds; t++ {
		r.fairRound(t)
	}
	return r.finish(true, r.cfg.Rounds)
}

// advStep executes one adversarial step: the source freely chooses a
// node to tick or a pending frame to deliver.
func (r *runner) advStep(t int) {
	n := r.d.Network().N() // membership churn grows the roster mid-run
	if len(r.pending) > maxPending {
		drop := len(r.pending) - maxPending
		r.pending = append([]msgpass.Frame(nil), r.pending[drop:]...)
		r.event("t%d drop %d", t, drop)
	}
	k := r.src.Intn(n + len(r.pending))
	if k < n {
		r.tick(t, graph.ProcID(k))
		return
	}
	// The drawn frame names a channel; deliver that channel's OLDEST
	// pending frame (append order is send order). The runtime's
	// channels are FIFO, so the adversary picks which channel makes
	// progress but may not reorder within one — unrestricted
	// reordering lets stale K-state counters duplicate a token, a
	// fault model the real transport cannot exhibit.
	j := k - n
	for i := 0; i < j; i++ {
		if r.pending[i].From == r.pending[j].From && r.pending[i].To == r.pending[j].To {
			j = i
			break
		}
	}
	f := r.pending[j]
	r.pending = append(r.pending[:j], r.pending[j+1:]...)
	r.deliver(t, f)
}

// RunAdversarial executes one adversarial run of MaxSteps free steps.
// Only safety is checked — no fairness means no liveness.
func RunAdversarial(cfg Config) *Result {
	r := newRunner(cfg)
	r.boot()
	for t := 0; t < r.cfg.MaxSteps; t++ {
		r.applyFaults(t)
		r.advStep(t)
	}
	return r.finish(false, r.cfg.MaxSteps)
}

// SweepRun is the canonical seed-indexed run shared by the sweep tests
// and cmd/detsim: the seed determines first the crash plan (crashCount
// victims, rounds in the first third, malicious windows up to 6 garbage
// steps) and then the whole schedule, all from one PRNG — so a seed a
// sweep flags replays bit-for-bit from the CLI with the same topology,
// rounds, and crash count.
func SweepRun(g *graph.Graph, seed int64, rounds, crashCount int, trace bool) *Result {
	if rounds <= 0 {
		rounds = 200
	}
	src := NewRand(seed)
	var plan []Crash
	if crashCount > 0 {
		plan = RandomCrashes(src, g, crashCount, rounds/3, 6)
	}
	return Run(Config{
		Graph:   g,
		Seed:    seed,
		Rounds:  rounds,
		Crashes: plan,
		Trace:   trace,
		Source:  src,
	})
}

// SweepChurn is the canonical seed-indexed membership-churn run shared
// by the sweep tests and cmd/detsim -mode churn: the seed determines
// first the churn plan (churnCount leave/rejoin pairs, leaves in the
// first half, each rejoin 10–29 rounds later) and then the whole
// schedule, all from one PRNG — so a flagged seed replays bit-for-bit.
func SweepChurn(g *graph.Graph, seed int64, rounds, churnCount int, trace bool) *Result {
	if rounds <= 0 {
		rounds = 240
	}
	src := NewRand(seed)
	var leaves []Leave
	var joins []Join
	if churnCount > 0 {
		leaves, joins = RandomChurn(src, g, churnCount, rounds/2)
	}
	return Run(Config{
		Graph:  g,
		Seed:   seed,
		Rounds: rounds,
		Leaves: leaves,
		Joins:  joins,
		Trace:  trace,
		Source: src,
	})
}

// RandomChurn draws a membership-churn plan from src: count distinct
// victims, each leaving in [0, maxRound) and rejoining 10–29 rounds
// later with whichever of its original neighbors are present then
// (nil Neighbors). Drawing the plan from the schedule source keeps
// "one seed = one execution".
func RandomChurn(src Source, g *graph.Graph, count, maxRound int) ([]Leave, []Join) {
	if count > g.N() {
		count = g.N()
	}
	victims := perm(src, g.N())[:count]
	leaves := make([]Leave, 0, count)
	joins := make([]Join, 0, count)
	for _, v := range victims {
		at := src.Intn(maxRound)
		leaves = append(leaves, Leave{Node: graph.ProcID(v), Round: at})
		joins = append(joins, Join{Node: graph.ProcID(v), Round: at + 10 + src.Intn(20)})
	}
	return leaves, joins
}

// RandomCrashes draws a crash plan from src: count distinct victims,
// each crashing in [0, maxRound) with a malicious window of up to
// maxWindow garbage steps (0 = benign kill). Drawing the plan from the
// same source that schedules the run keeps "one seed = one execution".
func RandomCrashes(src Source, g *graph.Graph, count, maxRound, maxWindow int) []Crash {
	if count > g.N() {
		count = g.N()
	}
	victims := perm(src, g.N())[:count]
	crashes := make([]Crash, 0, count)
	for _, v := range victims {
		crashes = append(crashes, Crash{
			Node:  graph.ProcID(v),
			Round: src.Intn(maxRound),
			Steps: src.Intn(maxWindow + 1),
		})
	}
	return crashes
}
