package msgpass

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// settledGoroutines returns the goroutine count once it has held still
// for 50ms, so goroutines earlier tests are still tearing down do not
// skew a baseline.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 50 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// waitGoroutines waits until exactly want goroutines run.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartAddsOneGoroutine: a started network is one event loop,
// whatever its size, and Stop ends it.
func TestStartAddsOneGoroutine(t *testing.T) {
	base := settledGoroutines()
	nw := NewNetwork(Config{Graph: graph.Grid(3, 3), Algorithm: core.NewMCDP(), Seed: 1})
	nw.Start()
	waitGoroutines(t, base+1)
	waitUntil(t, 5*time.Second, func() bool { return sum(nw.Eats()) > 0 }, "a meal")
	nw.Stop()
	waitGoroutines(t, base)
}

// TestTCPNetworkAddsLoopAndReaders: over TCP the only goroutines are the
// loop and the sockets' readers — one acceptor per node and one reader
// per end of every edge's connection.
func TestTCPNetworkAddsLoopAndReaders(t *testing.T) {
	g := graph.Grid(3, 3)
	base := settledGoroutines()
	nw, err := NewTCPNetwork(Config{Graph: g, Algorithm: core.NewMCDP(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	readers := g.N() + 2*g.EdgeCount()
	waitGoroutines(t, base+readers)
	nw.Start()
	waitGoroutines(t, base+readers+1)
	waitUntil(t, 5*time.Second, func() bool { return sum(nw.Eats()) > 0 }, "a meal")
	nw.Stop()
	waitGoroutines(t, base)
}

// TestWakesCoalesceAndNeverBlock parks the event loop inside OnSnapshot,
// right after that hook woke its own node, and fires thousands of Wakes
// at it from other goroutines: none may block, and once the loop runs
// again every node takes exactly one event for all the wakes it got.
// The hour-long tick rules out any event but wakes.
func TestWakesCoalesceAndNeverBlock(t *testing.T) {
	g := graph.Grid(3, 3)
	const p = graph.ProcID(4)
	var (
		nw      *Network
		armed   atomic.Bool
		parked  = make(chan struct{})
		release = make(chan struct{})
	)
	nw = NewNetwork(Config{
		Graph:     g,
		Algorithm: core.NewMCDP(),
		Hungry:    make([]bool, g.N()),
		TickEvery: time.Hour,
		Seed:      1,
		OnSnapshot: func(q graph.ProcID, _ Snapshot) {
			if q == p && armed.CompareAndSwap(true, false) {
				nw.Wake(p) // on the loop goroutine itself
				close(parked)
				<-release
			}
		},
	})
	nw.Start()
	defer nw.Stop()
	events := func() []int64 {
		out := make([]int64, g.N())
		for q := range out {
			out[q] = nw.Snapshot(graph.ProcID(q)).Events
		}
		return out
	}
	// Boot gossip: every node hears each neighbor once, and nobody is
	// hungry, so nothing answers.
	waitUntil(t, 5*time.Second, func() bool { return sum(events()) == int64(2*g.EdgeCount()) }, "boot gossip")
	before := events()

	armed.Store(true)
	nw.Wake(p)
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the wake never ran")
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				nw.Wake(graph.ProcID(i % g.N()))
			}
		}()
	}
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Wake blocked while the event loop was busy")
	}
	close(release)

	want := make([]int64, g.N())
	for q := range want {
		want[q] = before[q] + 1
	}
	want[p]++ // the wake that parked the loop, then the coalesced one
	waitUntil(t, 5*time.Second, func() bool { return sum(events()) == sum(want) }, "the coalesced wakes")
	time.Sleep(20 * time.Millisecond)
	for q, got := range events() {
		if got != want[q] {
			t.Errorf("node %d: %d events, want %d (one per coalesced wake)", q, got, want[q])
		}
	}
}

// TestJoinersNeedNoGoroutine: a process spliced in by AddProcess, and
// one readmitted by JoinProcess, are ticked by the running loop — they
// eat — and the goroutine count never moves.
func TestJoinersNeedNoGoroutine(t *testing.T) {
	g := graph.Ring(4)
	base := settledGoroutines()
	nw := NewNetwork(Config{Graph: g, Algorithm: core.NewMCDP(), DiameterOverride: 6, Seed: 1})
	nw.Start()
	defer nw.Stop()
	waitGoroutines(t, base+1)

	added, err := nw.AddProcess([]graph.ProcID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return nw.Eats()[added] > 0 }, "the added process to eat")

	if err := nw.RemoveProcess(1); err != nil {
		t.Fatal(err)
	}
	if err := nw.JoinProcess(1, []graph.ProcID{0, 2}); err != nil {
		t.Fatal(err)
	}
	eats := nw.Eats()[1]
	waitUntil(t, 5*time.Second, func() bool { return nw.Eats()[1] > eats }, "the rejoined process to eat")
	if got := nw.Snapshot(1).Incarnation; got != 1 {
		t.Errorf("rejoined process at incarnation %d, want 1", got)
	}
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Errorf("%d goroutines after two joins, want %d", got, base+1)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
