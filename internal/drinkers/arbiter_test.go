package drinkers

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mcdp/internal/graph"
)

// alwaysEating is the most permissive oracle; safety must hold even
// under it (the central bottle accounting is what prevents conflicts).
func alwaysEating(graph.ProcID) bool { return true }

func TestArbiterSubmitValidation(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 2)
	if _, err := a.Submit(99, []int{0}); err == nil {
		t.Error("out-of-range home accepted")
	}
	if _, err := a.Submit(0, []int{99}); err == nil {
		t.Error("out-of-range bottle accepted")
	}
	if _, err := a.Submit(0, nil); err == nil {
		t.Error("empty bottle set accepted")
	}
	// Edge not incident to home: ring(4) edge (2,3) vs home 0.
	far := g.EdgeIndex(2, 3)
	if _, err := a.Submit(0, []int{far}); err == nil {
		t.Error("non-incident bottle accepted")
	}
	// Duplicates dedupe.
	b := g.EdgeIndex(0, 1)
	s, err := a.Submit(0, []int{b, b, b})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(s.Bottles) != 1 {
		t.Errorf("duplicate bottles not deduplicated: %v", s.Bottles)
	}
}

func TestArbiterQueueLimit(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 2)
	b := g.EdgeIndex(0, 1)
	for i := 0; i < 2; i++ {
		if _, err := a.Submit(0, []int{b}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := a.Submit(0, []int{b}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("third submit: got %v, want ErrQueueFull", err)
	}
	if got := a.QueueDepth(0); got != 2 {
		t.Errorf("QueueDepth(0) = %d, want 2", got)
	}
}

func TestArbiterGrantReleaseCycle(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	b01 := g.EdgeIndex(0, 1)
	s, err := a.Submit(0, []int{b01})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !a.HasPending(0) {
		t.Error("HasPending(0) false with a queued session")
	}
	grants := a.Pump(alwaysEating)
	if len(grants) != 1 || grants[0] != s {
		t.Fatalf("Pump granted %v, want the submitted session", grants)
	}
	select {
	case <-s.Granted():
	default:
		t.Fatal("Granted channel not closed after grant")
	}
	if a.Status(s) != Drinking || a.Active() != 1 {
		t.Error("granted session not Drinking")
	}
	if a.Holder(b01) != 0 {
		t.Errorf("bottle holder = %d, want home 0", a.Holder(b01))
	}
	// The conflicting session at the other endpoint must wait.
	s2, err := a.Submit(1, []int{b01})
	if err != nil {
		t.Fatalf("Submit s2: %v", err)
	}
	if grants := a.Pump(alwaysEating); len(grants) != 0 {
		t.Fatalf("conflicting session granted while bottle in use: %v", grants)
	}
	if !a.Release(s) {
		t.Error("Release of a drinking session reported false")
	}
	if a.Release(s) {
		t.Error("double Release reported true")
	}
	if grants := a.Pump(alwaysEating); len(grants) != 1 || grants[0] != s2 {
		t.Fatalf("waiter not granted after release: %v", grants)
	}
	a.Release(s2)
	if a.Active() != 0 {
		t.Errorf("Active = %d after all releases, want 0", a.Active())
	}
}

func TestArbiterCancel(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	b := g.EdgeIndex(0, 1)
	s1, _ := a.Submit(0, []int{b})
	s2, _ := a.Submit(0, []int{b})
	if !a.Cancel(s2) {
		t.Error("Cancel of a pending session reported false")
	}
	if a.QueueDepth(0) != 1 {
		t.Errorf("QueueDepth = %d after cancel, want 1", a.QueueDepth(0))
	}
	a.Pump(alwaysEating)
	if a.Cancel(s1) {
		t.Error("Cancel of a granted session reported true; caller must Release instead")
	}
	if !a.Release(s1) {
		t.Error("Release after failed Cancel reported false")
	}
}

func TestArbiterFIFOPerNode(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	b01, b03 := g.EdgeIndex(0, 1), g.EdgeIndex(0, 3)
	s1, _ := a.Submit(0, []int{b01})
	s2, _ := a.Submit(0, []int{b03})
	// The head s1 drinks; s2 (disjoint bottles) becomes the new head and
	// is granted in the same eating window.
	grants := a.Pump(alwaysEating)
	if len(grants) != 2 || grants[0] != s1 || grants[1] != s2 {
		t.Fatalf("grants %v, want [s1 s2] in FIFO order", grants)
	}
	// A head blocked on a bottle blocks the whole node queue (FIFO, no
	// overtaking).
	s3, _ := a.Submit(1, []int{b01}) // conflicts with s1
	s4, _ := a.Submit(1, []int{g.EdgeIndex(1, 2)})
	if grants := a.Pump(alwaysEating); len(grants) != 0 {
		t.Fatalf("blocked head overtaken: %v", grants)
	}
	a.Release(s1)
	grants = a.Pump(alwaysEating)
	if len(grants) != 2 || grants[0] != s3 || grants[1] != s4 {
		t.Fatalf("after release, grants %v, want [s3 s4]", grants)
	}
}

// TestArbiterNeverConflicts hammers the arbiter from many goroutines
// under a randomized eating oracle and asserts the core invariant: no
// two simultaneously granted sessions ever share a bottle.
func TestArbiterNeverConflicts(t *testing.T) {
	g := graph.Grid(3, 4)
	a := NewArbiter(g, 16)
	var (
		mu      sync.Mutex
		using   = make(map[int]*Session) // bottle -> session, our shadow
		badness int
	)
	acquireShadow := func(s *Session) {
		mu.Lock()
		for _, b := range s.Bottles {
			if other, ok := using[b]; ok && other != s {
				badness++
			}
			using[b] = s
		}
		mu.Unlock()
	}
	releaseShadow := func(s *Session) {
		mu.Lock()
		for _, b := range s.Bottles {
			if using[b] == s {
				delete(using, b)
			}
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	pumperDone := make(chan struct{})
	// A pumper with a flapping random oracle.
	go func() {
		defer close(pumperDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.Pump(func(p graph.ProcID) bool { return rng.Intn(3) == 0 })
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				home := graph.ProcID(rng.Intn(g.N()))
				idxs := g.IncidentEdgeIndices(home)
				var bottles []int
				for _, b := range idxs {
					if rng.Intn(2) == 0 {
						bottles = append(bottles, b)
					}
				}
				if len(bottles) == 0 {
					bottles = []int{idxs[rng.Intn(len(idxs))]}
				}
				s, err := a.Submit(home, bottles)
				if err != nil {
					continue // backpressure; fine
				}
				select {
				case <-s.Granted():
					acquireShadow(s)
					releaseShadow(s)
					a.Release(s)
				default:
					if !a.Cancel(s) {
						// Granted in the race: own it, then release.
						acquireShadow(s)
						releaseShadow(s)
						a.Release(s)
					}
				}
			}
		}(int64(w) + 10)
	}
	wg.Wait()
	close(stop)
	<-pumperDone
	if badness != 0 {
		t.Fatalf("%d conflicting grants observed", badness)
	}
	if a.Active() != 0 {
		t.Errorf("Active = %d after all workers finished, want 0", a.Active())
	}
}

// neverEating is the oracle of a substrate in which nobody dines: any
// grant under it was made at hand.
func neverEating(graph.ProcID) bool { return false }

// allAlive is the liveness hook of a fault-free substrate.
func allAlive(graph.ProcID) bool { return true }

// TestArbiterAtHandRule walks the at-hand rule's conditions one by one
// on ring(4), where bottle (0,1) starts at node 0 and bottle (1,2) at
// node 1: each case queues sessions, pumps with nobody eating, and says
// whether the probe session must come out granted.
func TestArbiterAtHandRule(t *testing.T) {
	g := graph.Ring(4)
	b01, b12, b03 := g.EdgeIndex(0, 1), g.EdgeIndex(1, 2), g.EdgeIndex(0, 3)
	type arb = *Arbiter
	submit := func(t *testing.T, a arb, home graph.ProcID, bottles ...int) *Session {
		t.Helper()
		s, err := a.Submit(home, bottles)
		if err != nil {
			t.Fatalf("Submit(%d, %v): %v", home, bottles, err)
		}
		return s
	}
	cases := []struct {
		name  string
		alive func(graph.ProcID) bool
		probe func(t *testing.T, a arb) *Session
		want  bool
	}{
		{"free bottle at its home", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01)
		}, true},
		{"two bottles, both at the home", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01, b03)
		}, true},
		{"no liveness hook: every grant needs a meal", nil, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01)
		}, false},
		{"bottle across the edge", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01)
		}, false},
		{"one of two bottles across the edge", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01, b12)
		}, false},
		{"bottle in use", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01)
			a.Pump(neverEating) // the first session drinks from b01
			return submit(t, a, 0, b01)
		}, false},
		{"bottle wanted by a session queued at the peer", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 1, b01)
			return submit(t, a, 0, b01)
		}, false},
		{"bottle wanted by a session queued behind the peer's head", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 1, b12)
			a.Pump(neverEating)  // drinks from b12 ...
			submit(t, a, 1, b12) // ... so this head is blocked ...
			submit(t, a, 1, b01) // ... with the waiter for b01 behind it
			return submit(t, a, 0, b01)
		}, false},
		{"behind a blocked head", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01)
			a.Pump(neverEating)
			submit(t, a, 0, b01) // blocked: b01 is in use
			return submit(t, a, 0, b03)
		}, false},
		{"home dead or departed", func(p graph.ProcID) bool { return p != 0 }, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01)
		}, false},
		{"the peer's waiter is stranded at a dead peer", func(p graph.ProcID) bool { return p != 1 }, func(t *testing.T, a arb) *Session {
			submit(t, a, 1, b01)
			return submit(t, a, 0, b01)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArbiter(g, 8)
			a.Alive = tc.alive
			before := a.AtHandGrants()
			s := tc.probe(t, a)
			a.Pump(neverEating)
			if got := a.Status(s) == Drinking; got != tc.want {
				t.Fatalf("granted at hand = %v, want %v", got, tc.want)
			}
			if tc.want && a.AtHandGrants() == before {
				t.Error("an at-hand grant was not counted")
			}
			// TryAtHand is the same rule for one session.
			a2 := NewArbiter(g, 8)
			a2.Alive = tc.alive
			if got := a2.TryAtHand(tc.probe(t, a2)); got != tc.want {
				t.Fatalf("TryAtHand = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestArbiterWaiterAtPeerClosesFastPath: a stream of sessions at the
// holder cannot starve a waiter across the edge — once it queues, the
// holder's next session needs a meal like everybody else, the waiter's
// meal takes the bottle over, and the bottle then is at hand there.
func TestArbiterWaiterAtPeerClosesFastPath(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	a.Alive = allAlive
	b01 := g.EdgeIndex(0, 1)
	eatingOnly := func(p graph.ProcID) func(graph.ProcID) bool {
		return func(q graph.ProcID) bool { return q == p }
	}

	s1, _ := a.Submit(0, []int{b01})
	if grants := a.Pump(neverEating); len(grants) != 1 || grants[0] != s1 {
		t.Fatalf("lone session at the holder not granted at hand: %v", grants)
	}
	w, _ := a.Submit(1, []int{b01})
	s2, _ := a.Submit(0, []int{b01})
	a.Release(s1)
	for i := 0; i < 3; i++ {
		if grants := a.Pump(neverEating); len(grants) != 0 {
			t.Fatalf("granted %v at hand past a waiter at the peer", grants)
		}
	}
	if grants := a.Pump(eatingOnly(1)); len(grants) != 1 || grants[0] != w {
		t.Fatalf("the waiter's meal granted %v, want the waiter", grants)
	}
	if a.Holder(b01) != 1 {
		t.Fatalf("bottle at %d after the waiter's meal, want 1", a.Holder(b01))
	}
	a.Release(w)
	if grants := a.Pump(neverEating); len(grants) != 0 {
		t.Fatalf("granted %v at hand with the bottle across the edge", grants)
	}
	if grants := a.Pump(eatingOnly(0)); len(grants) != 1 || grants[0] != s2 {
		t.Fatalf("node 0's meal granted %v, want its queued session", grants)
	}
	a.Release(s2)
	// Served: the rule is open again, now at node 0 where the bottle is.
	s3, _ := a.Submit(0, []int{b01})
	if !a.TryAtHand(s3) {
		t.Fatal("fast path still closed after the waiter was served")
	}
	if got := a.AtHandGrants(); got != 2 {
		t.Errorf("AtHandGrants = %d, want 2 (s1 and s3)", got)
	}
}

// TestArbiterBottlesMoveOnlyInMeals: whatever is submitted, granted at
// hand, released or canceled while nobody eats, no bottle changes
// endpoint — only a collector's meal moves one.
func TestArbiterBottlesMoveOnlyInMeals(t *testing.T) {
	g := graph.Grid(3, 4)
	a := NewArbiter(g, 8)
	a.Alive = allAlive
	holders := func() []graph.ProcID {
		out := make([]graph.ProcID, g.EdgeCount())
		for b := range out {
			out[b] = a.Holder(b)
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	var drinking []*Session
	atHand := 0
	for i := 0; i < 2000; i++ {
		before := holders()
		switch rng.Intn(3) {
		case 0:
			home := graph.ProcID(rng.Intn(g.N()))
			idxs := g.IncidentEdgeIndices(home)
			if s, err := a.Submit(home, idxs[:1+rng.Intn(len(idxs))]); err == nil && rng.Intn(4) == 0 {
				a.Cancel(s)
			}
		case 1:
			grants := a.Pump(neverEating)
			atHand += len(grants)
			drinking = append(drinking, grants...)
		case 2:
			if len(drinking) > 0 {
				j := rng.Intn(len(drinking))
				a.Release(drinking[j])
				drinking = append(drinking[:j], drinking[j+1:]...)
			}
		}
		if after := holders(); !slices.Equal(before, after) {
			t.Fatalf("step %d moved a bottle with nobody eating: %v -> %v", i, before, after)
		}
	}
	if atHand == 0 {
		t.Fatal("no session was granted at hand; the walk tested nothing")
	}
	moved := holders()
	a.Pump(alwaysEating)
	if slices.Equal(moved, holders()) {
		t.Error("a pass with everybody eating collected no bottle across an edge")
	}
}

// TestArbiterPumpNeedsReportsHunger: the hunger report comes from the
// state the pass leaves behind — a node whose head was granted at hand
// is not hungry, a node whose head waits for a bottle across the edge is.
func TestArbiterPumpNeedsReportsHunger(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	a.Alive = allAlive
	atHand, _ := a.Submit(0, []int{g.EdgeIndex(0, 1)})
	across, _ := a.Submit(2, []int{g.EdgeIndex(1, 2)})
	pending := make(map[graph.ProcID]bool)
	grants := a.PumpNeeds(neverEating, func(p graph.ProcID, want bool) { pending[p] = want })
	if len(grants) != 1 || grants[0] != atHand || a.Status(across) != Pending {
		t.Fatalf("granted %v, want only the at-hand session", grants)
	}
	want := map[graph.ProcID]bool{0: false, 1: false, 2: true, 3: false}
	for p, w := range want {
		if got, ok := pending[p]; !ok || got != w {
			t.Errorf("node %d reported hungry=%v (reported=%v), want %v", p, got, ok, w)
		}
	}
}
