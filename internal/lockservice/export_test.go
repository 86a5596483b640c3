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
