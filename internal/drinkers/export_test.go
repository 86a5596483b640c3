package drinkers

import "mcdp/internal/graph"

// MutateAtHandIgnoresUse takes the in-use check out of the at-hand rule
// — the mutant grants a free-looking bottle a Drinking session still
// holds — until the returned function is called.
func MutateAtHandIgnoresUse() (restore func()) {
	real := inUse
	inUse = func(*Arbiter, int) bool { return false }
	return func() { inUse = real }
}

// MutateSurrenderIgnoresDemand takes the peer-has-no-queued-session
// check out of the across-the-edge half of the at-hand rule — the mutant
// pulls a free bottle away from a live holder that has a session queued
// for it — until the returned function is called.
func MutateSurrenderIgnoresDemand() (restore func()) {
	real := askedFor
	askedFor = func(*Arbiter, graph.ProcID, int) bool { return false }
	return func() { askedFor = real }
}
