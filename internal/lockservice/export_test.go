package lockservice

import (
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
