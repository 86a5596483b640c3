//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool drops a share of what is put back, so allocation
// budgets that count on pooled objects do not hold there.
const raceEnabled = false
