// Package coord holds the service's three coordination protocols —
// the cross-shard span, the key migration and the shard failover — as
// clock-free, goroutine-free step machines and predicates: events and a
// caller-supplied `now` tick go in, actions and verdicts come out. Two
// drivers execute them. internal/lockservice drives them with wall
// time against real shards (a blocking sub-acquire, a renew, a
// sleep-poll on the source's lease table); internal/detsim drives them
// in lockstep rounds against the driven msgpass/drinkers substrate. A
// decision stated here — an order, an abort, a commit, a gap, a hold —
// is therefore the decision the detsim sweeps and fuzzers certify.
//
// A tick is whatever the driver counts in (nanoseconds since start,
// microseconds since the epoch, rounds); one machine only ever compares
// ticks of one driver.
package coord

import "sort"

// Part is one shard's slice of a (possibly spanning) resource set.
type Part struct {
	Shard int
	Keys  []string
}

// Ascending sorts parts into the span walk order and returns them. The
// span protocol's deadlock freedom rests on every span walking its
// shards in the same total order: two spans contending for overlapping
// shards can then never hold-and-wait against each other.
//
//lint:order sorted span Shard
func Ascending(parts []Part) []Part {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Shard < parts[j].Shard })
	return parts
}

// SpanOp names what a span driver must do next.
type SpanOp uint8

const (
	// SpanPrepare: acquire part Part — the next in ascending shard order —
	// under the prepare budget.
	SpanPrepare SpanOp = iota
	// SpanRefresh: renew held part Part back to the full prepare budget.
	SpanRefresh
	// SpanEpoch: report whether the placement epoch still is the one the
	// parts were resolved under.
	SpanEpoch
	// SpanPlacement: the epoch moved; report whether every part's keys
	// still resolve, unfenced, to that part's shard.
	SpanPlacement
	// SpanCommit: promote held part Part to the client's TTL.
	SpanCommit
	// SpanRelease: rollback — release held part Part.
	SpanRelease
	// SpanCommitted and SpanAborted are terminal.
	SpanCommitted
	SpanAborted
)

// SpanAbort says why a span rolled back.
type SpanAbort uint8

const (
	NotAborted SpanAbort = iota
	// PrepareFailed: a sub-acquire failed; its own error is the span's.
	PrepareFailed
	// PrepareLostMidSpan: an early grant could not be refreshed — the
	// janitor or a node fence revoked it while a later shard was waited on.
	PrepareLostMidSpan
	// PlacementMoved: a ring change or key migration moved a part's keys
	// between resolution and commit. A span commits entirely inside one
	// placement epoch or not at all — otherwise a migrated key could be
	// granted under its old home while new acquires already route to its
	// new one.
	PlacementMoved
	// PrepareLostAtCommit: a prepare was gone when the commit pass reached it.
	PrepareLostAtCommit
)

func (a SpanAbort) String() string {
	return [...]string{"not aborted", "sub-acquire failed", "prepare lost mid-span",
		"placement moved mid-span", "prepare lost at commit"}[a]
}

// SpanAction is one step for the driver to execute.
type SpanAction struct {
	Op   SpanOp
	Part int
}

// Span is the all-or-nothing acquire of a resource set spanning shards:
// sub-leases taken in ascending shard order under a prepare budget, then
// a commit pass promoting every prepare to the client's TTL. After each
// sub-acquire every earlier prepare is refreshed back to the full budget,
// so a prepare only has to survive ONE shard's wait between refreshes,
// however many shards the span touches. Any failed step rolls every held
// sub-lease back in reverse order, so no client ever observes a partially
// committed set.
//
// The driver loops: execute Next(), report the outcome through Done.
type Span struct {
	n, held int
	act     SpanAction
	why     SpanAbort
	at      int
}

// NewSpan starts a span over n parts already in Ascending order.
func NewSpan(n int) Span { return Span{n: n} }

// Next returns the action awaiting execution.
func (s *Span) Next() SpanAction { return s.act }

// Held is how many leading parts currently hold a sub-lease.
func (s *Span) Held() int { return s.held }

// Abort returns why the span rolled back and the part whose step failed.
func (s *Span) Abort() (SpanAbort, int) { return s.why, s.at }

// Done reports the outcome of the pending action and returns the next.
// The outcome of a release is ignored: rollback is best effort, and a
// sub-lease already gone is released.
func (s *Span) Done(ok bool) SpanAction {
	switch s.act.Op {
	case SpanPrepare:
		if !ok {
			return s.abort(PrepareFailed)
		}
		s.held++
		if s.held > 1 {
			s.act = SpanAction{Op: SpanRefresh}
		} else {
			s.walk()
		}
	case SpanRefresh:
		if !ok {
			return s.abort(PrepareLostMidSpan)
		}
		if s.act.Part+2 < s.held {
			s.act.Part++
		} else {
			s.walk()
		}
	case SpanEpoch:
		if ok {
			s.act = SpanAction{Op: SpanCommit}
		} else {
			s.act = SpanAction{Op: SpanPlacement}
		}
	case SpanPlacement:
		if !ok {
			return s.abort(PlacementMoved)
		}
		s.act = SpanAction{Op: SpanCommit}
	case SpanCommit:
		if !ok {
			return s.abort(PrepareLostAtCommit)
		}
		if s.act.Part+1 < s.n {
			s.act.Part++
		} else {
			s.act = SpanAction{Op: SpanCommitted}
		}
	case SpanRelease:
		if s.act.Part > 0 {
			s.act.Part--
		} else {
			s.act = SpanAction{Op: SpanAborted}
		}
	}
	return s.act
}

// walk moves on from a prepare whose earlier siblings are all refreshed:
// to the next shard, or to the epoch check once every part is held.
func (s *Span) walk() {
	if s.held < s.n {
		s.act = SpanAction{Op: SpanPrepare, Part: s.held}
	} else {
		s.act = SpanAction{Op: SpanEpoch}
	}
}

// abort records the failed step and starts the reverse-order rollback.
func (s *Span) abort(why SpanAbort) SpanAction {
	s.why, s.at = why, s.act.Part
	if s.held == 0 {
		s.act = SpanAction{Op: SpanAborted}
	} else {
		s.act = SpanAction{Op: SpanRelease, Part: s.held - 1}
	}
	return s.act
}
