// Cross-shard span simulation: coord.Span — the Router's multi-key
// acquire protocol itself — driven in lockstep rounds. A cluster of K
// diners shards advances under one schedule Source while this harness
// plays the Router's part of the driver: it decomposes drawn key sets by
// ring placement, walks coord.Ascending parts, and executes whatever the
// machine asks for against each shard's lockservice.ShardCore — a
// sub-acquire is a session queued there and polled each round until it
// becomes a lease, a refresh or commit renews that lease, a release
// releases it. The server side of a sub-lease (its TTL, its janitor,
// node fences) is the core's, on the runner's virtual clock. What is the
// harness's own: the workload, the ring-churn, migration and node fault
// plans, and the oracles, which assert the property the protocol owes
// its clients: no schedule, fault plan, or ring-churn plan may ever
// surface a partially committed span.
package detsim

import (
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
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
	// keyed override is installed and every span whose recorded
	// placement the new ring contradicts is fenced — the span-protocol
	// view of MigrateKey. The harness adopts the same drain-at-change
	// strictness as ring churn (production instead drains the source
	// before committing), which keeps the cross-epoch exclusivity
	// oracle sound and lets the displaced oracle demand termination.
	Migrations []KeyMigration
}

// SpanResult is the outcome of one cross-shard span run.
type SpanResult struct {
	ClusterResult
	// Spans counts created spans; SingleShard of them placed on one
	// shard (the fast-path control group), the rest genuinely spanned.
	Spans, SingleShard int
	// Commits and Rollbacks count terminal outcomes; Displaced counts
	// spans fenced by a ring change that remapped one of their keys or
	// by a node fence revoking a sub-lease.
	Commits, Rollbacks, Displaced int
	// RingLeaves and RingJoins count executed ring changes.
	RingLeaves, RingJoins int
	// Migrations counts executed key-override installs.
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

// simSpan is one span: its ascending parts, the protocol machine, and
// each part's sub-acquire — its session, then its sub-lease.
type simSpan struct {
	id          int
	keys        []string
	parts       []coord.Part
	m           coord.Span
	gen0        uint64    // ring generation the parts were resolved under
	subs        []*client // each part's sub-acquire, once submitted
	submitRound int
	born        int
	committed   bool
	commitRound int
	releaseAt   int
	mustAbort   bool
	displacedAt int // -1 until a ring change or fence touches the span
	done        bool
}

// spanDone reports an action's outcome to the machine. The mutation
// test swaps it for a machine that skips a decision.
var spanDone = (*coord.Span).Done

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
// janitor run inside it), applies ring churn, steps each span's driver,
// and draws new workload.
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

// applyRingChurn fires ring membership changes due at round t. After
// every membership change — leave or join, since consistent hashing
// moves keys in both directions — it fences each in-flight span whose
// recorded placement the new ring contradicts: the span's keys now map
// to other shards, so letting it keep (or go on to take) its old
// sub-leases would let a later span acquire the same keys on the new
// owners concurrently. Production leaves stranded leases to drain by
// TTL (exclusivity is per placement epoch; operators drain a shard
// before removing it) — the harness adopts the stricter
// drain-at-change so its cross-epoch exclusivity oracle stays sound,
// and the displaced oracle demands each fenced span still terminates
// promptly.
func (h *spanHarness) applyRingChurn(t int) {
	for _, rc := range h.cfg.RingChurn {
		if rc.Leave == t && h.ring.Size() > 1 {
			if err := h.ring.Remove(rc.Shard); err == nil {
				h.res.RingLeaves++
				h.h.event("t%d ring leave %d", t, rc.Shard)
				h.fenceRemapped(t)
			}
		}
		if rc.Join == t && rc.Join > rc.Leave {
			if err := h.ring.Add(rc.Shard); err == nil {
				h.res.RingJoins++
				h.h.event("t%d ring join %d", t, rc.Shard)
				h.fenceRemapped(t)
			}
		}
	}
}

// applyMigrations fires key-migration plan entries due at round t:
// install the override and fence every in-flight span the moved key
// invalidates.
func (h *spanHarness) applyMigrations(t int) {
	for _, km := range h.cfg.Migrations {
		if km.Round != t {
			continue
		}
		key := h.keys[km.KeyIndex%len(h.keys)]
		src, ok := h.ring.Lookup(key)
		if !ok {
			continue
		}
		dst := h.migrationTarget(src, km.To)
		if dst == src || !h.ring.Has(dst) || h.ring.SetOverride(key, dst) != nil {
			continue
		}
		h.res.Migrations++
		h.h.event("t%d migrate %s shard %d -> %d", t, key, src, dst)
		h.fenceRemapped(t)
	}
}

// displace marks a span as touched by a ring change or node fence.
func (h *spanHarness) displace(t int, sp *simSpan) {
	if sp.displacedAt < 0 {
		sp.displacedAt = t
		h.res.Displaced++
	}
}

// fenceRemapped aborts every live span holding, awaiting, or still
// planning a part whose keys the current ring no longer places on that
// part's shard.
func (h *spanHarness) fenceRemapped(t int) {
	for _, sp := range h.spans {
		if sp.done || sp.mustAbort {
			continue
		}
		for _, pt := range sp.parts {
			if !h.placed(pt.Keys, pt.Shard) {
				sp.mustAbort = true
				h.displace(t, sp)
				h.h.event("t%d span%d displaced: keys %v moved off shard %d", t, sp.id, pt.Keys, pt.Shard)
				break
			}
		}
	}
}

// stepSpan polls one span for a round. An uncommitted live span is
// always waiting on the sub-acquire the machine last asked for: every
// other action completes within settle.
func (h *spanHarness) stepSpan(t int, sp *simSpan) {
	if sp.done {
		return
	}
	if sp.committed {
		// The hold is the client's: release when it ends, or at once when
		// a part was displaced or is gone — a node fence revoked it, found
		// as production finds it on the client's next renew. All-or-nothing
		// is preserved by tearing the span down, not by keeping it.
		for _, cl := range sp.subs {
			if !cl.live() && !sp.mustAbort {
				sp.mustAbort = true
				h.displace(t, sp)
				h.h.event("t%d span%d lost its lease on shard %d", t, sp.id, cl.shard)
			}
		}
		if sp.mustAbort || sp.releaseAt <= t {
			for _, cl := range sp.subs {
				cl.end()
			}
			sp.done = true
			if sp.mustAbort {
				sp.releaseAt = t // the commit window truly ended here
				h.res.Rollbacks++
				h.h.event("t%d span%d rollback: post-commit fence", t, sp.id)
			} else {
				h.h.event("t%d span%d released", t, sp.id)
			}
		}
		return
	}
	k := sp.m.Next().Part
	switch status := sp.subs[k].rn.core.Arbiter().Status(sp.subs[k].sess); {
	case sp.mustAbort:
		h.failPrepare(t, sp, "displaced")
	case status == drinkers.Drinking:
		h.settle(t, sp, h.granted(t, sp, k))
	case status == drinkers.Done:
		// Canceled or released out from under us — cannot happen from
		// this coordinator; treat as a lost sub-session.
		h.failPrepare(t, sp, "sub-session vanished")
	case t-sp.submitRound >= h.cfg.AcquireRounds:
		h.failPrepare(t, sp, "acquire timeout")
	}
}

// granted turns part k's granted session into its prepare sub-lease and
// reports the success to the machine.
func (h *spanHarness) granted(t int, sp *simSpan, k int) coord.SpanAction {
	sp.subs[k].lease(h.prep)
	h.h.event("t%d span%d part%d granted", t, sp.id, k)
	return spanDone(&sp.m, true)
}

// failPrepare withdraws the pending sub-acquire and reports the failure
// to the machine.
func (h *spanHarness) failPrepare(t int, sp *simSpan, why string) {
	k := sp.m.Next().Part
	sp.subs[k].end()
	h.h.event("t%d span%d part%d on shard %d failed: %s", t, sp.id, k, sp.parts[k].Shard, why)
	h.settle(t, sp, spanDone(&sp.m, false))
}

// settle executes the machine's actions until it asks for a sub-acquire
// (queued here, polled by stepSpan from the next round on) or ends.
func (h *spanHarness) settle(t int, sp *simSpan, act coord.SpanAction) {
	for {
		ok := true
		switch act.Op {
		case coord.SpanPrepare:
			h.checkRefreshed(t, sp)
			k, pt := act.Part, sp.parts[act.Part]
			if sp.subs[k] = h.runners[pt.Shard].submit(pt.Keys, pt.Shard, t); sp.subs[k] == nil {
				ok = false
				break
			}
			sp.submitRound = t
			h.h.event("t%d span%d submit part%d shard%d home=%d", t, sp.id, k, pt.Shard, sp.subs[k].sess.Home)
			if !sp.subs[k].granted() { // not at hand: polled by stepSpan
				return
			}
			act = h.granted(t, sp, k)
			continue
		case coord.SpanRefresh:
			ok = sp.subs[act.Part].renew(h.prep)
		case coord.SpanEpoch:
			h.checkRefreshed(t, sp)
			ok = h.ring.Generation() == sp.gen0
		case coord.SpanPlacement:
			for _, pt := range sp.parts {
				ok = ok && h.placed(pt.Keys, pt.Shard)
			}
		case coord.SpanCommit:
			ok = sp.subs[act.Part].renew(0) // the client's TTL: the default
		case coord.SpanRelease:
			sp.subs[act.Part].end()
		case coord.SpanCommitted:
			h.commit(t, sp)
			return
		case coord.SpanAborted:
			why, part := sp.m.Abort()
			sp.done = true
			h.res.Rollbacks++
			h.h.event("t%d span%d rollback: %v at part%d", t, sp.id, why, part)
			return
		}
		act = spanDone(&sp.m, ok)
	}
}

// checkRefreshed is the orphaned-prepare oracle, run whenever a span
// moves on from a grant: every sub-lease it holds must by now carry a
// full prepare budget, or a prepare has to outlive more than ONE
// shard's wait — the bound PrepareRounds is sized for.
func (h *spanHarness) checkRefreshed(t int, sp *simSpan) {
	for _, cl := range sp.subs[:sp.m.Held()] {
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

// drawWorkload maybe creates one new span: a drawn key set decomposed
// by the current ring into ascending-shard parts, each mapped onto its
// shard's arbiter. Key sets may overlap across spans — contention is
// the interesting case.
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
	var parts []coord.Part
	for _, k := range keys {
		s, ok := h.ring.Lookup(k)
		if !ok {
			return // empty ring: no placement, no span
		}
		i := 0
		for i < len(parts) && parts[i].Shard != s {
			i++
		}
		if i == len(parts) {
			parts = append(parts, coord.Part{Shard: s})
		}
		parts[i].Keys = append(parts[i].Keys, k)
	}
	sp := &simSpan{
		id:          h.res.Spans,
		keys:        keys,
		parts:       coord.Ascending(parts),
		m:           coord.NewSpan(len(parts)),
		gen0:        h.ring.Generation(),
		subs:        make([]*client, len(parts)),
		born:        t,
		displacedAt: -1,
	}
	for _, pt := range sp.parts {
		if _, _, err := h.cores[pt.Shard].Mapper().MapSession(pt.Keys); err != nil {
			return // part unmappable within its shard: skip the draw
		}
	}
	h.res.Spans++
	if len(parts) == 1 {
		h.res.SingleShard++
	}
	h.h.event("t%d span%d new keys=%v parts=%d", t, sp.id, keys, len(parts))
	h.spans = append(h.spans, sp)
	h.settle(t, sp, sp.m.Next())
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
		budget := len(sp.parts)*(h.cfg.AcquireRounds+h.cfg.PrepareRounds) + h.cfg.MaxHoldRounds + 10
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
// migrations land while spans are mid-prepare. A span straddling the
// placement change is fenced and must roll back cleanly (Displaced
// counts it); atomicity and per-shard history legality must hold on
// both sides of every override install.
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
