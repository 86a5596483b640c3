package detsim

import (
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// ForkConfig describes a deterministic run of the Chandy-Misra fork
// baseline. Crashes are benign kills only (Steps is ignored): the
// classic protocol has no malicious-crash story, which is the point of
// the baseline.
type ForkConfig struct {
	// Graph is the topology. Required.
	Graph *graph.Graph
	// Seed drives the schedule source (unless Source overrides it).
	Seed int64
	// Rounds is the fair round count (default 200).
	Rounds int
	// Crashes lists benign kills by round.
	Crashes []Crash
	// EatEvents is the eating dwell (default 2).
	EatEvents int
	// Trace retains the full event trace.
	Trace bool
	// Source overrides the schedule source; nil uses NewRand(Seed).
	Source Source
}

// ForkResult is the outcome of a deterministic fork-baseline run.
type ForkResult struct {
	// Seed echoes the run's seed.
	Seed int64
	// TraceHash and Trace mirror Result.
	TraceHash uint64
	Trace     []string
	// Eats is completed meals per philosopher.
	Eats []int64
	// QuiescedAt is the first round after which the system froze — no
	// pending frames, no emissions, nobody eating, no meals completing —
	// or -1 if it never quiesced. Once frozen, a (crash-free) fair
	// deterministic system can never move again, so the detection is
	// exact, not a timeout heuristic.
	QuiescedAt int
	// EatsAtQuiesce snapshots the meal counts at QuiescedAt (nil if the
	// run never quiesced); tests assert Eats == EatsAtQuiesce to pin
	// "frozen means frozen forever".
	EatsAtQuiesce []int64
	// SafetyViolations lists overlapping neighbor meals.
	SafetyViolations []string
}

// RunFork executes one fair deterministic run of the fork baseline:
// each round applies due kills, ticks every philosopher in a drawn
// permutation, and delivers the round-start frame window in a drawn
// permutation. After the final crash, rounds in which nothing happens —
// empty window, no frames emitted, nobody eating, meal counts frozen —
// mark quiescence: with all inputs exhausted and every philosopher
// handler a pure function of delivered frames, the system is provably
// stuck forever, which is the starvation the classic protocol cannot
// avoid under crashes.
func RunFork(cfg ForkConfig) *ForkResult {
	if cfg.Graph == nil {
		panic("detsim: ForkConfig.Graph is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 200
	}
	src := cfg.Source
	if src == nil {
		src = NewRand(cfg.Seed)
	}
	vnow := time.Unix(0, 0).UTC()
	d := msgpass.NewForkDriven(msgpass.ForkConfig{
		Graph:     cfg.Graph,
		EatEvents: cfg.EatEvents,
	}, func() time.Time { return vnow })
	nw := d.Network()
	tr := newTrace(cfg.Trace)
	event := tr.event
	res := &ForkResult{Seed: cfg.Seed, QuiescedAt: -1}
	event("forkrun %s n=%d seed=%d", cfg.Graph.Name(), cfg.Graph.N(), cfg.Seed)

	lastCrash := -1
	for _, c := range cfg.Crashes {
		if c.Round > lastCrash {
			lastCrash = c.Round
		}
	}
	var pending []msgpass.ForkFrame
	n := cfg.Graph.N()
	for t := 0; t < cfg.Rounds; t++ {
		for _, c := range cfg.Crashes {
			if c.Round == t {
				nw.Kill(c.Node)
				event("t%d kill %d", t, c.Node)
			}
		}
		window := pending
		pending = nil
		emitted := 0
		eatsBefore := nw.Eats()
		for _, i := range perm(src, n) {
			vnow = vnow.Add(time.Millisecond)
			frames := d.Tick(graph.ProcID(i))
			event("t%d tick %d eating=%v", t, i, d.Eating(graph.ProcID(i)))
			for _, f := range frames {
				event("+ %s", f)
			}
			emitted += len(frames)
			pending = append(pending, frames...)
		}
		for _, i := range perm(src, len(window)) {
			vnow = vnow.Add(time.Millisecond)
			frames := d.Deliver(window[i])
			event("t%d dlv %s", t, window[i])
			for _, f := range frames {
				event("+ %s", f)
			}
			emitted += len(frames)
			pending = append(pending, frames...)
		}
		if res.QuiescedAt < 0 && t > lastCrash &&
			len(window) == 0 && emitted == 0 && !anyEating(d, n) && eatsEqual(eatsBefore, nw.Eats()) {
			res.QuiescedAt = t
			res.EatsAtQuiesce = nw.Eats()
			event("t%d quiesced", t)
		}
	}
	d.Finish()
	res.TraceHash, res.Trace = tr.sum(), tr.lines
	res.Eats = nw.Eats()
	res.SafetyViolations = nw.OverlappingNeighborSessions()
	return res
}

func anyEating(d *msgpass.ForkDriven, n int) bool {
	for p := 0; p < n; p++ {
		if d.Eating(graph.ProcID(p)) {
			return true
		}
	}
	return false
}

func eatsEqual(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
