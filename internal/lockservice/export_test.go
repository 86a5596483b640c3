package lockservice

import (
	"mcdp/internal/coord"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// MutateFenceSkipsGarbageRestart makes a garbage restart fence nothing
// — the mutant leaves the leases of the incarnation it ends live — until
// the returned function is called.
func MutateFenceSkipsGarbageRestart() (restore func()) {
	real := restartFence
	restartFence = func(c *ShardCore, node graph.ProcID, mode msgpass.RestartMode) []LeaseEvent {
		if mode == msgpass.RestartArbitrary {
			return nil
		}
		return real(c, node, mode)
	}
	return func() { restartFence = real }
}

// MutateGrantIgnoresHalt deletes Acquire's post-insert halt check — the
// mutant publishes a grant a Halt landed in front of — until the
// returned function is called.
func MutateGrantIgnoresHalt() (restore func()) {
	real := haltedAfterGrant
	haltedAfterGrant = func(*Server) bool { return false }
	return func() { haltedAfterGrant = real }
}

// MutateGrantSkipsIncarnationFence deletes the post-grant incarnation
// check — the mutant hands out a grant a promotion overtook — until the
// returned function is called.
func MutateGrantSkipsIncarnationFence() (restore func()) {
	real := deposed
	deposed = func(*ReplicaCore, uint64) bool { return false }
	return func() { deposed = real }
}

// MutatePromotionIgnoresLag drops replication lag from the promotion
// step's gap predicate until the returned function is called.
func MutatePromotionIgnoresLag() (restore func()) {
	real := promotionGap
	promotionGap = func(ev coord.Evidence) bool { ev.Lag = 0; return real(ev) }
	return func() { promotionGap = real }
}

// MutateSpanSkipsRefresh makes the span machine claim every refresh of
// an earlier prepare happened without asking for it until the returned
// function is called.
func MutateSpanSkipsRefresh() (restore func()) {
	real := spanDone
	spanDone = func(m coord.Span, ok bool) (coord.Span, coord.SpanAction) {
		m, act := real(m, ok)
		for act.Op == coord.SpanRefresh {
			m, act = real(m, true)
		}
		return m, act
	}
	return func() { spanDone = real }
}

// MutateCommitOnExpiredFence re-introduces a commit step that trusts its
// drain observation — no fence expiry check, no re-probe of the source —
// until the returned function is called.
func MutateCommitOnExpiredFence() (restore func()) {
	real := migrationCommit
	migrationCommit = func(m *coord.Migration, _ int64, drained bool, _ int, dstInRing bool, placedAt int) coord.CommitVerdict {
		return real(m, m.Deadline-1, drained, 0, dstInRing, placedAt)
	}
	return func() { migrationCommit = real }
}

// MutateMigrationUnfenced installs a migration's override at fence time
// — no fence, no drain — and passes every grant's post-grant check until
// the returned function is called: the shortcut the protocol exists to
// forbid.
func MutateMigrationUnfenced() (restore func()) {
	realFence, realPlaced := fence, placed
	fence = func(c *RouterCore, m *coord.Migration) { _ = c.ring.SetOverride(m.Key, m.Dst) }
	placed = func([]string, int, int64, func(string) (int, bool), func(string) *coord.Migration) bool { return true }
	return func() { fence, placed = realFence, realPlaced }
}
