// Package chaos drives randomized fault campaigns against the diners
// runtime: seeded transport fault injection (drop, duplication,
// corruption, delay, reordering) plus scripted node kills, malicious
// crashes, restarts, and partitions. Everything is derived from a
// single seed through splitmix64 streams, so a campaign is a value —
// replaying the same seed reproduces the identical fault trace, which
// is what lets internal/detsim check chaos runs deterministically and
// lets a failing live campaign be shrunk offline.
//
//lint:deterministic
package chaos

import (
	"sync/atomic"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// Faults is the per-frame fault probability profile. Each frame on the
// delivery path draws independent coins in a fixed order (drop,
// duplicate, corrupt, delay, reorder), so the profile composes: a frame
// can be both duplicated and delayed. The zero value injects nothing.
type Faults struct {
	// Drop is the probability a frame is lost in transit.
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Corrupt is the probability a frame's payload is scrambled with
	// domain-respecting garbage before delivery.
	Corrupt float64
	// Delay is the probability a frame is held for 1..MaxDelayTicks
	// gossip ticks (virtual rounds under a driver) before delivery.
	Delay float64
	// MaxDelayTicks bounds the delay drawn for delayed frames
	// (default 3 when Delay > 0).
	MaxDelayTicks int
	// Reorder is the probability a frame not already delayed is held
	// one tick, letting the frames behind it overtake.
	Reorder float64
}

// DefaultFaults is the standard campaign profile: every fault class at
// or above the 10% rates the acceptance bar asks for, except the two
// expensive classes (duplication, corruption) which stay at 5%.
func DefaultFaults() Faults {
	return Faults{
		Drop:          0.10,
		Duplicate:     0.05,
		Corrupt:       0.05,
		Delay:         0.10,
		MaxDelayTicks: 3,
		Reorder:       0.10,
	}
}

// Zero reports whether the profile injects nothing.
func (f Faults) Zero() bool {
	return f.Drop == 0 && f.Duplicate == 0 && f.Corrupt == 0 && f.Delay == 0 && f.Reorder == 0
}

// Injector implements msgpass.FaultInjector: one seeded splitmix64
// stream, advanced by an atomic counter, drives every per-frame
// decision. Under the wall-clock event loop the counter order follows
// the timing of ticks, wakes and TCP reads, so rates hold but traces
// differ; under a
// single-threaded driver (detsim) the call order is deterministic and
// the whole fault trace replays exactly from the seed.
type Injector struct {
	seed uint64
	f    Faults
	ctr  atomic.Uint64
}

// NewInjector builds an injector for the profile. A zero profile
// returns nil, which callers can hand to msgpass.Config.Faults
// directly (nil disables the hook).
func NewInjector(seed int64, f Faults) *Injector {
	if f.Zero() {
		return nil
	}
	if f.Delay > 0 && f.MaxDelayTicks <= 0 {
		f.MaxDelayTicks = 3
	}
	return &Injector{seed: uint64(seed), f: f}
}

// Faults returns the injector's probability profile.
func (in *Injector) Faults() Faults { return in.f }

// Decisions returns how many frames the injector has judged.
func (in *Injector) Decisions() uint64 { return in.ctr.Load() }

// Decide draws the fault verdict for one frame.
func (in *Injector) Decide(from, to graph.ProcID, edgeIdx int) msgpass.FaultDecision {
	n := in.ctr.Add(1)
	x := Splitmix64(in.seed ^ n*0x9e3779b97f4a7c15)
	var d msgpass.FaultDecision
	if coin(x, in.f.Drop) {
		d.Drop = true
		return d
	}
	x = Splitmix64(x + 0x9e3779b97f4a7c15)
	if coin(x, in.f.Duplicate) {
		d.Duplicates = 1
	}
	x = Splitmix64(x + 0x9e3779b97f4a7c15)
	if coin(x, in.f.Corrupt) {
		d.CorruptBits = x | 1 // non-zero marks the frame for corruption
	}
	x = Splitmix64(x + 0x9e3779b97f4a7c15)
	if coin(x, in.f.Delay) {
		d.DelayTicks = 1 + int(Splitmix64(x)%uint64(in.f.MaxDelayTicks))
	}
	x = Splitmix64(x + 0x9e3779b97f4a7c15)
	if d.DelayTicks == 0 && coin(x, in.f.Reorder) {
		d.DelayTicks = 1
	}
	return d
}

// coin maps the top 53 bits of x to [0,1) and compares against p.
func coin(x uint64, p float64) bool {
	return p > 0 && float64(x>>11)/(1<<53) < p
}

// Splitmix64 is the splitmix64 finalizer: the repo's standard cheap,
// seedable, stateless PRNG step. Exported so campaign generators and
// tests share the exact stream the injector uses.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
