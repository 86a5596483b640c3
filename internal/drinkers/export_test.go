package drinkers

// MutateAtHandIgnoresUse takes the in-use check out of the at-hand rule
// — the mutant grants a free-looking bottle a Drinking session still
// holds — until the returned function is called.
func MutateAtHandIgnoresUse() (restore func()) {
	real := inUse
	inUse = func(*Arbiter, int) bool { return false }
	return func() { inUse = real }
}
