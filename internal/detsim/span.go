// Cross-shard span simulation: the Router's multi-key acquire itself —
// lockservice.RouterCore's parts resolution and settle loop over
// coord.Span — driven in lockstep rounds. A cluster of K diners shards
// advances under one schedule Source while this harness plays the
// Router's wall-clock shell: a key set the core places on one shard takes
// the Router's direct path (one acquire at the client's TTL, then the
// post-grant placement check); for any other it issues each sub-acquire
// the core asks for against that shard's lockservice.ShardCore — a
// session queued there and polled each round until it becomes a lease —
// and hands the core the renew and release calls its settle loop makes.
// Placement, fences, the epoch and placement checks and every abort are
// the core's; the server side of a sub-lease (its TTL, its janitor, node
// fences) is the ShardCore's, on the runner's virtual clock. What is
// the harness's own: the workload, the ring-churn, migration and node
// fault plans, the client model (a holder drops a committed span whose
// placement changed), and the oracles, which assert the property the
// protocol owes its clients: no schedule, fault plan, or ring-churn plan
// may ever surface a partially committed span.
package detsim

import (
	"slices"
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
)

// RingChurn schedules one ring-membership change: shard Shard leaves
// the ring at Leave and rejoins at Join (Join <= Leave means it never
// returns). Like Router.RingLeave/RingJoin: new placements avoid the
// absentee, in-flight spans keep their sub-sessions.
type RingChurn struct {
	Shard int
	Leave int
	Join  int
}

// SpanConfig describes one deterministic cross-shard span run.
type SpanConfig struct {
	ClusterConfig
	// SpanPercent is the per-round chance (0..100) a new span is drawn
	// (default 50).
	SpanPercent int
	// MaxKeysPerSpan bounds a drawn span's key count (default 4, min 2).
	MaxKeysPerSpan int
	// AcquireRounds bounds how long one part may stay pending before
	// the sub-acquire gives up (default 25).
	AcquireRounds int
	// PrepareRounds is the prepare-lease budget in rounds: an early
	// grant is leased for PrepareRounds round times, and one not
	// refreshed within them expires server-side — the round-domain twin
	// of RouterConfig.PrepareTTL (default 20).
	PrepareRounds int
	// MaxHoldRounds bounds how long a committed span is held (default 8:
	// parts at hand are granted inside the acquire, as the Router's are,
	// so only long holds leave spans waiting and in flight).
	MaxHoldRounds int
	// RingChurn is the ring-membership plan.
	RingChurn []RingChurn
	// Migrations is the key-migration plan: at each entry's round the
	// core fences the key, and the move commits once the source drained
	// — the fence, drain and commit MigrateKey runs.
	Migrations []KeyMigration
}

// SpanResult is the outcome of one cross-shard span run.
type SpanResult struct {
	ClusterResult
	// Spans counts created spans; SingleShard of them placed on one
	// shard and took the Router's direct path (the fast-path control
	// group), the rest genuinely spanned.
	Spans, SingleShard int
	// Commits and Rollbacks count terminal outcomes (a one-part draw
	// that got no lease is a rollback); Displaced counts
	// spans a ring change or migration fence contradicted, or whose
	// sub-lease a node fence revoked.
	Commits, Rollbacks, Displaced int
	// RingLeaves and RingJoins count executed ring changes.
	RingLeaves, RingJoins int
	// Migrations counts committed key migrations.
	Migrations int
	// PartialCommits lists spans that committed while some part was not
	// held — the cross-shard atomicity violation this harness exists to
	// rule out.
	PartialCommits []string
	// OverlapViolations lists committed spans sharing a key whose
	// commit windows overlapped (all-or-nothing linearizability at the
	// span level).
	OverlapViolations []string
	// OrphanedSpans lists spans that never reached a terminal state
	// despite generous budgets — including multi-key waiters orphaned
	// after their prepare-holding shard left the ring — and prepares
	// orphaned by their own coordinator: an early grant left to expire
	// on its original budget although a later part was granted since.
	OrphanedSpans []string
}

// Failed reports whether the run violated any checked property.
func (r *SpanResult) Failed() bool {
	return len(r.PartialCommits) > 0 || len(r.OverlapViolations) > 0 ||
		len(r.OrphanedSpans) > 0 || len(r.SafetyViolations) > 0 ||
		len(r.HistoryViolations) > 0 || len(r.LeaseViolations) > 0
}

// simSpan is one span: the core's Span (ascending parts, resolution
// epoch, machine) and each part's sub-acquire — its session, then its
// sub-lease.
type simSpan struct {
	id          int
	keys        []string
	sp          lockservice.Span
	subs        []*client // each part's sub-acquire, once submitted
	submitRound int
	born        int
	committed   bool
	commitRound int
	releaseAt   int
	dropped     bool // the holder drops the committed span
	displacedAt int  // -1 until a ring change or fence touches the span
	done        bool
}

// spanHarness is a cluster plus the span coordinator's state.
type spanHarness struct {
	*cluster
	cfg   SpanConfig
	prep  time.Duration // the prepare-lease TTL: PrepareRounds round times
	spans []*simSpan
	res   *SpanResult
}

// RunSpan executes one deterministic cross-shard span run.
func RunSpan(cfg SpanConfig) *SpanResult {
	h := newSpanHarness(cfg)
	for t := 0; t < h.cfg.Rounds; t++ {
		h.round(t)
	}
	return h.finish()
}

func newSpanHarness(cfg SpanConfig) *spanHarness {
	if cfg.SpanPercent <= 0 {
		cfg.SpanPercent = 50
	}
	if cfg.MaxKeysPerSpan < 2 {
		cfg.MaxKeysPerSpan = 4
	}
	if cfg.AcquireRounds <= 0 {
		cfg.AcquireRounds = 25
	}
	if cfg.PrepareRounds <= 0 {
		cfg.PrepareRounds = 20
	}
	if cfg.MaxHoldRounds <= 0 {
		cfg.MaxHoldRounds = 8
	}
	c := newCluster(cfg.ClusterConfig, "span")
	cfg.ClusterConfig = c.cfg
	return &spanHarness{
		cluster: c,
		cfg:     cfg,
		prep:    time.Duration(cfg.PrepareRounds) * roundTime,
		res:     &SpanResult{},
	}
}

// round advances every shard one lockstep round (node fences and the
// janitor run inside it), applies ring churn and migrations, steps each
// span's driver, and draws new workload.
func (h *spanHarness) round(t int) {
	h.advance(t)
	h.applyRingChurn(t)
	h.applyMigrations(t)
	for _, core := range h.cores {
		core.Pump()
	}
	for _, sp := range h.spans {
		h.stepSpan(t, sp)
	}
	h.drawWorkload(t)
}

// applyRingChurn fires ring membership changes due at round t through
// the core, which refuses to remove its last member. Consistent hashing
// moves keys both ways, so leaves and joins alike can displace spans.
func (h *spanHarness) applyRingChurn(t int) {
	for _, rc := range h.cfg.RingChurn {
		if rc.Leave == t && h.router.RingLeave(rc.Shard) == nil {
			h.res.RingLeaves++
			h.h.event("t%d ring leave %d", t, rc.Shard)
		}
		if rc.Join == t && rc.Join > rc.Leave && h.router.RingJoin(rc.Shard) == nil {
			h.res.RingJoins++
			h.h.event("t%d ring join %d", t, rc.Shard)
		}
	}
}

// applyMigrations fences the keys of plan entries due at round t and
// drives every migration in flight.
func (h *spanHarness) applyMigrations(t int) {
	for _, km := range h.cfg.Migrations {
		if km.Round == t {
			h.startMigration(t, h.keys[km.KeyIndex%len(h.keys)], km.To, defaultDrainRounds)
		}
	}
	h.stepMigrations(t, defaultDrainRounds, func(_ *coord.Migration, err error) {
		if err == nil {
			h.res.Migrations++
		}
	})
}

// displace marks a span as touched by a ring change or node fence.
func (h *spanHarness) displace(t int, sp *simSpan) {
	if sp.displacedAt < 0 {
		sp.displacedAt = t
		h.res.Displaced++
	}
}

// moved reports whether any of the span's keys resolves off its part's
// shard.
func (h *spanHarness) moved(sp *simSpan) bool {
	for _, pt := range sp.sp.Parts {
		for _, k := range pt.Keys {
			if s, ok := h.router.Lookup(k); !ok || s != pt.Shard {
				return true
			}
		}
	}
	return false
}

// stepSpan polls one span for a round. A span whose parts the core no
// longer places, unfenced, on their shards — after a ring change, a
// migration's fence or its commit — is displaced. An uncommitted one is
// left to the protocol: it aborts at its epoch and placement checks or
// on its sub-acquire's timeout, and the displaced oracle demands it
// terminates. An uncommitted live span is always waiting on the
// sub-acquire the core last asked for, or a one-part draw on its one
// acquire: every other action completes within Settle.
func (h *spanHarness) stepSpan(t int, sp *simSpan) {
	if sp.done {
		return
	}
	if sp.displacedAt < 0 && !h.router.StillPlaced(sp.sp.Parts, roundEnd(t)) {
		h.displace(t, sp)
		h.h.event("t%d span%d displaced", t, sp.id)
	}
	if sp.committed {
		// The hold is the client's: release when it ends, or drop it at
		// once when a part is gone — a node fence revoked it, found as
		// production finds it on the client's next renew — or its keys
		// moved. Production leaves a moved hold to drain by TTL
		// (exclusivity is per placement epoch); the harness's stricter
		// client keeps its cross-epoch exclusivity oracle sound.
		// All-or-nothing is preserved by tearing the span down, not by
		// keeping it.
		lost := h.moved(sp)
		for _, cl := range sp.subs {
			lost = lost || !cl.live()
		}
		if lost && !sp.dropped {
			sp.dropped = true
			h.displace(t, sp)
			h.h.event("t%d span%d dropped", t, sp.id)
		}
		if sp.dropped || sp.releaseAt <= t {
			for _, cl := range sp.subs {
				cl.end()
			}
			sp.done = true
			if sp.dropped {
				sp.releaseAt = t // the commit window truly ended here
				h.res.Rollbacks++
				h.h.event("t%d span%d rollback: post-commit fence", t, sp.id)
			} else {
				h.h.event("t%d span%d released", t, sp.id)
			}
		}
		return
	}
	k := sp.sp.Next().Part
	switch status := sp.subs[k].rn.core.Arbiter().Status(sp.subs[k].sess); {
	case status == drinkers.Drinking && len(sp.sp.Parts) == 1:
		h.grantDirect(t, sp)
	case status == drinkers.Drinking:
		h.granted(t, sp, k)
		h.prepare(t, sp, h.settle(t, sp, true))
	case status == drinkers.Done:
		// Canceled or released out from under us — cannot happen from
		// this coordinator; treat as a lost sub-session.
		h.failPrepare(t, sp, "sub-session vanished")
	case t-sp.submitRound >= h.cfg.AcquireRounds:
		h.failPrepare(t, sp, "acquire timeout")
	}
}

// granted turns part k's granted session into its prepare sub-lease.
func (h *spanHarness) granted(t int, sp *simSpan, k int) {
	sp.subs[k].lease(h.prep)
	h.h.event("t%d span%d part%d granted", t, sp.id, k)
}

// failPrepare withdraws the pending sub-acquire and reports the failure
// to the core.
func (h *spanHarness) failPrepare(t int, sp *simSpan, why string) {
	if len(sp.sp.Parts) == 1 {
		h.failDirect(t, sp, why)
		return
	}
	k := sp.sp.Next().Part
	sp.subs[k].end()
	h.h.event("t%d span%d part%d on shard %d failed: %s", t, sp.id, k, sp.sp.Parts[k].Shard, why)
	h.prepare(t, sp, h.settle(t, sp, false))
}

// direct runs a one-part draw down Router.Acquire's direct path: one
// acquire, leased at the client's TTL once granted — no prepare lease, no
// refresh, no commit renew.
func (h *spanHarness) direct(t int, sp *simSpan) {
	pt := sp.sp.Parts[0]
	if sp.subs[0] = h.submit(pt.Keys, pt.Shard, t); sp.subs[0] == nil {
		h.failDirect(t, sp, "refused")
		return
	}
	sp.submitRound = t
	h.h.event("t%d span%d direct submit shard%d home=%d", t, sp.id, pt.Shard, sp.subs[0].sess.Home)
	if sp.subs[0].granted() { // at hand
		h.grantDirect(t, sp)
	}
}

// grantDirect leases a one-part draw's grant at the client's TTL, then
// runs the Router's post-grant check: only when the ring generation moved
// since the draw resolved must the part still be placed, or the grant is
// released and the acquire bounced.
func (h *spanHarness) grantDirect(t int, sp *simSpan) {
	sp.subs[0].lease(sp.sp.TTL)
	if h.router.Generation() != sp.sp.Gen0 && !h.router.StillPlaced(sp.sp.Parts, roundEnd(t)) {
		h.failDirect(t, sp, "placement moved mid-acquire")
		return
	}
	h.commit(t, sp)
}

// failDirect ends a one-part draw that got no lease the client keeps:
// its acquire is withdrawn or its grant released, and the draw counts as
// a rollback.
func (h *spanHarness) failDirect(t int, sp *simSpan, why string) {
	if cl := sp.subs[0]; cl != nil {
		cl.end()
	}
	sp.done = true
	h.res.Rollbacks++
	h.h.event("t%d span%d direct acquire on shard %d failed: %s", t, sp.id, sp.sp.Parts[0].Shard, why)
}

// settle reports the pending sub-acquire's outcome to the core, whose
// Settle runs the span on to its next sub-acquire or its end, renewing
// and releasing sub-leases on their shards' clocks.
func (h *spanHarness) settle(t int, sp *simSpan, ok bool) coord.SpanAction {
	return h.router.Settle(&sp.sp, ok, lockservice.SpanCalls{
		Renew: func(i int, ttl time.Duration) error { return sp.subs[i].renew(ttl) },
		Release: func(i int) {
			sp.subs[i].end()
		},
		AtEpoch: func() { h.checkRefreshed(t, sp) },
	}, roundEnd(t))
}

// prepare submits each sub-acquire the core asks for, from act on, until
// one waits (polled by stepSpan from the next round on) or the span
// ends.
func (h *spanHarness) prepare(t int, sp *simSpan, act coord.SpanAction) {
	for act.Op == coord.SpanPrepare {
		h.checkRefreshed(t, sp)
		k, pt := act.Part, sp.sp.Parts[act.Part]
		if sp.subs[k] = h.submit(pt.Keys, pt.Shard, t); sp.subs[k] == nil {
			act = h.settle(t, sp, false)
			continue
		}
		sp.submitRound = t
		h.h.event("t%d span%d submit part%d shard%d home=%d", t, sp.id, k, pt.Shard, sp.subs[k].sess.Home)
		if !sp.subs[k].granted() { // not at hand
			return
		}
		h.granted(t, sp, k)
		act = h.settle(t, sp, true)
	}
	if act.Op == coord.SpanCommitted {
		h.commit(t, sp)
		return
	}
	why, part := sp.sp.Abort()
	sp.done = true
	h.res.Rollbacks++
	h.h.event("t%d span%d rollback: %v at part%d", t, sp.id, why, part)
}

// checkRefreshed is the orphaned-prepare oracle, run whenever a span
// moves on from a grant: every sub-lease it holds must by now carry a
// full prepare budget, or a prepare has to outlive more than ONE
// shard's wait — the bound PrepareRounds is sized for.
func (h *spanHarness) checkRefreshed(t int, sp *simSpan) {
	for _, cl := range sp.subs[:sp.sp.Held()] {
		want := cl.rn.vnow.Add(h.prep)
		if dl, ok := cl.rn.core.Deadline(cl.id); !ok || !dl.Equal(want) {
			record(&h.res.OrphanedSpans, "t%d: span %d moved on with the prepare on shard %d expiring at %v, not refreshed to %v",
				t, sp.id, cl.shard, dl, want)
		}
	}
}

// commit records a committed span's hold — and first runs the
// partial-commit oracle: at this instant every part's sub-lease must be
// live and its session actually hold its bottles.
func (h *spanHarness) commit(t int, sp *simSpan) {
	for i, cl := range sp.subs {
		if !cl.live() || cl.rn.core.Arbiter().Status(cl.sess) != drinkers.Drinking {
			record(&h.res.PartialCommits, "t%d: span %d committed while part %d (shard %d) was not held",
				t, sp.id, i, cl.shard)
		}
	}
	sp.committed = true
	sp.commitRound = t
	sp.releaseAt = t + 1 + h.src.Intn(h.cfg.MaxHoldRounds)
	h.res.Commits++
	h.h.event("t%d span%d committed hold=%d", t, sp.id, sp.releaseAt-t)
}

// drawWorkload maybe creates one new span: a drawn key set that the
// core decomposes into ascending-shard parts, each mapped onto its
// shard's arbiter; a set of one part takes the direct path. Key sets may
// overlap across spans — contention is the interesting case.
func (h *spanHarness) drawWorkload(t int) {
	if h.src.Intn(100) >= h.cfg.SpanPercent {
		return
	}
	max := h.cfg.MaxKeysPerSpan
	if max > len(h.keys) {
		max = len(h.keys)
	}
	want := 2 + h.src.Intn(max-1)
	keys := make([]string, 0, want)
	for _, i := range perm(h.src, len(h.keys))[:want] {
		keys = append(keys, h.keys[i])
	}
	gen0 := h.router.Generation()
	parts, err := h.router.Parts(keys, roundEnd(t))
	if err != nil {
		return // a fenced key or an empty ring: the Router's 409 or 503
	}
	for _, pt := range parts {
		if _, _, err := h.cores[pt.Shard].Mapper().MapSession(pt.Keys); err != nil {
			return // part unmappable within its shard: skip the draw
		}
	}
	sp := &simSpan{
		id:          h.res.Spans,
		keys:        keys,
		sp:          lockservice.NewSpan(parts, gen0, h.prep, 0),
		subs:        make([]*client, len(parts)),
		born:        t,
		displacedAt: -1,
	}
	h.res.Spans++
	h.h.event("t%d span%d new keys=%v parts=%d", t, sp.id, keys, len(parts))
	h.spans = append(h.spans, sp)
	if len(parts) == 1 {
		h.res.SingleShard++
		h.direct(t, sp)
		return
	}
	h.prepare(t, sp, sp.sp.Next())
}

// finish runs the end-of-run oracles, drains surviving spans, and
// assembles the result.
func (h *spanHarness) finish() *SpanResult {
	res := h.res
	rounds := h.cfg.Rounds
	// Orphan oracle (before the shutdown drain): every span gets a
	// generous budget — each part may take AcquireRounds to grant plus a
	// PrepareRounds refresh cycle, plus the hold. A span still live past
	// it is wedged, not slow; a displaced span (its prepare-holding
	// shard left the ring, or a fence hit it) gets the same bound from
	// its displacement — the multi-key analog of the churn
	// displaced-waiter oracle.
	for _, sp := range h.spans {
		if sp.done {
			continue
		}
		budget := len(sp.sp.Parts)*(h.cfg.AcquireRounds+h.cfg.PrepareRounds) + h.cfg.MaxHoldRounds + 10
		if rounds-sp.born >= budget {
			record(&res.OrphanedSpans, "span %d born t%d never terminated in %d rounds", sp.id, sp.born, rounds-sp.born)
		} else if sp.displacedAt >= 0 && rounds-sp.displacedAt >= budget {
			record(&res.OrphanedSpans, "span %d displaced t%d still wedged at t%d", sp.id, sp.displacedAt, rounds)
		}
	}
	// Shutdown drain so every history closes.
	for _, sp := range h.spans {
		if sp.done {
			continue
		}
		if !sp.committed {
			h.failPrepare(rounds, sp, "shutdown drain")
			continue
		}
		for _, cl := range sp.subs {
			cl.end()
		}
		sp.done = true
	}
	// All-or-nothing linearizability at the span level: two committed
	// spans sharing a key must have disjoint commit windows.
	for i, a := range h.spans {
		if !a.committed {
			continue
		}
		for _, b := range h.spans[i+1:] {
			if !b.committed || a.releaseAt <= b.commitRound || b.releaseAt <= a.commitRound {
				continue
			}
			if shareKey(a.keys, b.keys) {
				record(&res.OverlapViolations, "spans %d and %d share a key and overlapped: [%d,%d) vs [%d,%d)",
					a.id, b.id, a.commitRound, a.releaseAt, b.commitRound, b.releaseAt)
			}
		}
	}
	res.ClusterResult = h.cluster.finish()
	return res
}

// shareKey reports whether the two key sets intersect.
func shareKey(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// SweepSpan is the canonical seed-indexed fair span run shared by the
// sweep tests and cmd/detsim -mode span: seed-determined schedule over
// a fault-free K-shard lockstep, checking the span oracles.
func SweepSpan(g *graph.Graph, seed int64, rounds, shards int, trace bool) *SpanResult {
	return RunSpan(SpanConfig{ClusterConfig: sweepCluster(g, seed, rounds, shards, trace, nil)})
}

// SweepSpanAdversarial is the adversarial-schedule variant: each shard
// advances by free source-driven steps, so only safety-class span
// oracles are meaningful — which they remain, by design.
func SweepSpanAdversarial(g *graph.Graph, seed int64, rounds, shards int, trace bool) *SpanResult {
	c := sweepCluster(g, seed, rounds, shards, trace, nil)
	c.Adversarial = true
	return RunSpan(SpanConfig{ClusterConfig: c})
}

// SweepSpanChurn is the ring-churn variant: churnCount shards leave
// the ring mid-run and rejoin 10–29 rounds later, with the plan drawn
// from the schedule source so one seed names the whole execution. The
// displaced-span oracle watches every multi-key waiter whose
// prepare-holding shard left.
func SweepSpanChurn(g *graph.Graph, seed int64, rounds, shards, churnCount int, trace bool) *SpanResult {
	src := NewRand(seed)
	var plan []RingChurn
	for i := 0; i < churnCount; i++ {
		s := src.Intn(shards)
		at := src.Intn(rounds / 2)
		plan = append(plan, RingChurn{Shard: s, Leave: at, Join: at + 10 + src.Intn(20)})
	}
	return RunSpan(SpanConfig{ClusterConfig: sweepCluster(g, seed, rounds, shards, trace, src), RingChurn: plan})
}

// SweepSpanMigrate is the migrate-during-span variant: seed-drawn key
// migrations — fence, drain, commit — run while spans are mid-prepare.
// A span straddling the fence or the placement change is displaced and
// must roll back cleanly (Displaced counts it); atomicity and per-shard
// history legality must hold on both sides of every override install.
func SweepSpanMigrate(g *graph.Graph, seed int64, rounds, shards, moves int, trace bool) *SpanResult {
	src := NewRand(seed)
	var plan []KeyMigration
	for i := 0; i < moves; i++ {
		plan = append(plan, KeyMigration{KeyIndex: src.Intn(24), Round: 5 + src.Intn(rounds*2/3), To: -1})
	}
	return RunSpan(SpanConfig{ClusterConfig: sweepCluster(g, seed, rounds, shards, trace, src), Migrations: plan})
}

// SweepSpanChaos is the shard-crash variant — the mid-prepare crash
// campaign: each shard draws kills (some malicious) in the first third
// of the run and a clean-or-garbage restart 10–29 rounds after each,
// all from the schedule source. Crashing a prepare-holding home fences
// the sub-lease (the restart path), which must roll the whole span
// back; the oracles then require full recovery with a linearizable
// multi-key history.
func SweepSpanChaos(g *graph.Graph, seed int64, rounds, shards, kills int, trace bool) *SpanResult {
	c := sweepCluster(g, seed, rounds, shards, trace, NewRand(seed))
	c.crashCampaign(kills, rounds/3, 6, 10, 20)
	return RunSpan(SpanConfig{ClusterConfig: c})
}

// SweepSpanRestartHolder is the held-part restart campaign: restarts
// times, at rounds drawn in the first two thirds of the run (or at the
// first round after with a held part), the home of a live span's held
// sub-lease — a prepare or a committed part — reboots, clean or garbage.
// Its restart fences the sub-lease, which must roll the whole span back
// (Displaced counts the committed ones), never strand part of it.
func SweepSpanRestartHolder(g *graph.Graph, seed int64, rounds, shards, restarts int, trace bool) *SpanResult {
	src := NewRand(seed)
	h := newSpanHarness(SpanConfig{ClusterConfig: sweepCluster(g, seed, rounds, shards, trace, src)})
	due := make([]int, restarts)
	for i := range due {
		due[i] = src.Intn(rounds * 2 / 3)
	}
	slices.Sort(due)
	for t := 0; t < rounds; t++ {
		if len(due) > 0 && due[0] <= t && h.restartHolder(t, func(*client) bool { return true }) {
			due = due[1:]
		}
		h.round(t)
	}
	return h.finish()
}
