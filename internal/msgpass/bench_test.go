package msgpass

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
)

// BenchmarkHungryToEating times the substrate's share of one grant on the
// goroutine runtime, the way the lock service drives it: a grid on which
// nobody else wants to eat, one worker made hungry and woken, the clock
// stopped at its first Eating snapshot; the worker changes every time, so
// its tokens are usually elsewhere. It is the `go test -bench` sibling of
// the benchmark's msgpass.hungry_to_eat_us_p50 (same topology, same 2 ms
// tick, same back-to-back cycles); ns/op is the mean over
// hungry→eating→thinking cycles, us/grant the mean of the hungry→eating
// part alone and p50-us/grant its median. Mean and median differ by
// design: the cycles follow each other without a pause, so a token held
// by one of the last two eaters still waits for that node's tick (the
// post-meal linger, see node.receive), and those waits carry the mean.
func BenchmarkHungryToEating(b *testing.B) {
	g := graph.Grid(3, 3)
	published := make(chan struct{}, 1)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Hungry:           make([]bool, g.N()),
		TickEvery:        2 * time.Millisecond,
		Seed:             1,
		OnSnapshot: func(graph.ProcID, Snapshot) {
			select {
			case published <- struct{}{}:
			default:
			}
		},
	})
	nw.Start()
	defer nw.Stop()
	await := func(p graph.ProcID, want core.State) {
		for nw.Snapshot(p).State != want {
			<-published
		}
	}
	rng := rand.New(rand.NewSource(1))
	var waited time.Duration
	waits := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := graph.ProcID(rng.Intn(g.N()))
		t0 := time.Now()
		nw.SetNeeds(p, true)
		nw.Wake(p)
		await(p, core.Eating)
		waits = append(waits, time.Since(t0))
		waited += waits[i]
		nw.SetNeeds(p, false)
		await(p, core.Thinking)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	b.ReportMetric(float64(waited.Microseconds())/float64(b.N), "us/grant")
	b.ReportMetric(float64(waits[len(waits)/2].Nanoseconds())/1000, "p50-us/grant")
}

// BenchmarkHandoverRounds counts, on the driven runtime, what one
// uncontended grant costs in protocol steps: a grid on which nobody else
// wants to eat, one worker made hungry and ticked once, then frames
// delivered in send order until it eats. deliveries/grant is the number
// of frames handled on the way and ticks/grant the rounds of everybody's
// ticks needed beyond the worker's own — zero whenever every holder
// answers the frame that asks, above zero here because the cycles follow
// each other without a pause and a holder that has just eaten answers on
// its tick.
func BenchmarkHandoverRounds(b *testing.B) {
	g := graph.Grid(3, 3)
	d := idleDriven(b, g)
	rd := d.Reader()
	nw := d.Network()
	rng := rand.New(rand.NewSource(1))
	var deliveries, ticks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := graph.ProcID(rng.Intn(g.N()))
		nw.SetNeeds(p, true)
		pending := d.Tick(p)
		for rd.State(p) != core.Eating {
			if len(pending) == 0 {
				// Out of frames and not eating: only the neighbors' ticks
				// can move the tokens now.
				for q := 0; q < g.N(); q++ {
					pending = append(pending, d.Tick(graph.ProcID(q))...)
				}
				ticks++
				continue
			}
			pending = append(pending[1:], d.Deliver(pending[0])...)
			deliveries++
		}
		nw.SetNeeds(p, false)
		for rd.State(p) != core.Thinking {
			pending = append(pending, d.Tick(p)...)
		}
		drain(b, d, pending, nil)
	}
	b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/grant")
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/grant")
}
