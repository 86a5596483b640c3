package drinkers

import (
	"errors"
	"math/rand"
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
// on ring(4), where bottles (0,1) and (0,3) start at node 0, (1,2) at
// node 1 and (2,3) at node 2: each case queues sessions, pumps with
// nobody eating, and says whether the probe session must come out
// granted and where the named bottles must sit afterwards.
func TestArbiterAtHandRule(t *testing.T) {
	g := graph.Ring(4)
	b01, b12, b23, b03 := g.EdgeIndex(0, 1), g.EdgeIndex(1, 2), g.EdgeIndex(2, 3), g.EdgeIndex(0, 3)
	type arb = *Arbiter
	type holders = map[int]graph.ProcID
	submit := func(t *testing.T, a arb, home graph.ProcID, bottles ...int) *Session {
		t.Helper()
		s, err := a.Submit(home, bottles)
		if err != nil {
			t.Fatalf("Submit(%d, %v): %v", home, bottles, err)
		}
		return s
	}
	// blockedAt queues, at home, a session that cannot be granted (its
	// first bottle is in use by a session of the same home) and that also
	// asks for the wanted bottles — as the queue's head, or behind another
	// blocked head.
	blockedAt := func(t *testing.T, a arb, behindHead bool, home graph.ProcID, busy int, wanted ...int) {
		t.Helper()
		submit(t, a, home, busy)
		a.Pump(neverEating) // drinks from busy ...
		if behindHead {
			submit(t, a, home, busy) // ... so this head is blocked ...
			submit(t, a, home, wanted...)
			return
		}
		submit(t, a, home, append([]int{busy}, wanted...)...) // ... and so is this one
	}
	notZero := func(p graph.ProcID) bool { return p != 0 }
	cases := []struct {
		name  string
		alive func(graph.ProcID) bool
		probe func(t *testing.T, a arb) *Session
		want  bool
		at    holders // where these bottles must sit after the pass
	}{
		{"free bottle at its home", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01)
		}, true, holders{b01: 0}},
		{"two bottles, both at the home", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01, b03)
		}, true, holders{b01: 0, b03: 0}},
		{"no liveness hook: every grant needs a meal", nil, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"bottle across the edge", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01)
		}, true, holders{b01: 1}},
		{"one of two bottles across the edge", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01, b12)
		}, true, holders{b01: 1, b12: 1}},
		{"both bottles surrendered by two peers", allAlive, func(t *testing.T, a arb) *Session {
			return submit(t, a, 3, b03, b23)
		}, true, holders{b03: 3, b23: 3}},
		{"bottle across the edge, peer dead or departed", notZero, func(t *testing.T, a arb) *Session {
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"bottle across the edge, peer asks for it", allAlive, func(t *testing.T, a arb) *Session {
			blockedAt(t, a, false, 0, b03, b01)
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"bottle across the edge, peer asks from behind its blocked head", allAlive, func(t *testing.T, a arb) *Session {
			blockedAt(t, a, true, 0, b03, b01)
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"bottle asked for at both ends", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01) // the holder's own head is held back too
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"second of two bottles across and its peer asks: the first has not moved", allAlive, func(t *testing.T, a arb) *Session {
			blockedAt(t, a, false, 2, b12, b23)
			return submit(t, a, 3, b03, b23)
		}, false, holders{b03: 0, b23: 2}},
		{"second of two bottles across and in use: the first has not moved", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 2, b23)
			a.Pump(neverEating)
			return submit(t, a, 3, b03, b23)
		}, false, holders{b03: 0, b23: 2}},
		{"bottle in use", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01)
			a.Pump(neverEating) // the first session drinks from b01
			return submit(t, a, 0, b01)
		}, false, holders{b01: 0}},
		{"bottle in use across the edge", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01)
			a.Pump(neverEating)
			return submit(t, a, 1, b01)
		}, false, holders{b01: 0}},
		{"bottle wanted by a session queued at the peer", allAlive, func(t *testing.T, a arb) *Session {
			blockedAt(t, a, false, 1, b12, b01)
			return submit(t, a, 0, b01)
		}, false, holders{b01: 0}},
		{"bottle wanted by a session queued behind the peer's head", allAlive, func(t *testing.T, a arb) *Session {
			blockedAt(t, a, true, 1, b12, b01)
			return submit(t, a, 0, b01)
		}, false, holders{b01: 0}},
		{"behind a blocked head", allAlive, func(t *testing.T, a arb) *Session {
			submit(t, a, 0, b01)
			a.Pump(neverEating)
			submit(t, a, 0, b01) // blocked: b01 is in use
			return submit(t, a, 0, b03)
		}, false, holders{b03: 0}},
		{"home dead or departed", notZero, func(t *testing.T, a arb) *Session {
			return submit(t, a, 0, b01)
		}, false, holders{b01: 0}},
		{"the peer's waiter is stranded at a dead peer", func(p graph.ProcID) bool { return p != 1 }, func(t *testing.T, a arb) *Session {
			submit(t, a, 1, b01)
			return submit(t, a, 0, b01)
		}, true, holders{b01: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(grant func(a arb, s *Session) bool) {
				t.Helper()
				a := NewArbiter(g, 8)
				a.Alive = tc.alive
				s := tc.probe(t, a)
				atHand, moved := a.AtHandGrants(), a.SurrenderedGrants()
				if got := grant(a, s); got != tc.want {
					t.Fatalf("granted at hand = %v, want %v", got, tc.want)
				}
				if got := a.AtHandGrants() - atHand; got != btoi(tc.want) {
					t.Errorf("the probe moved AtHandGrants by %d", got)
				}
				crossed := false
				for b, p := range tc.at {
					if a.Holder(b) != p {
						t.Errorf("bottle %v sits at %d, want %d", g.Edges()[b], a.Holder(b), p)
					}
					crossed = crossed || (tc.want && g.Edges()[b].A != p)
				}
				if got := a.SurrenderedGrants() - moved; got != btoi(crossed) {
					t.Errorf("the probe moved SurrenderedGrants by %d, crossed=%v", got, crossed)
				}
			}
			run(func(a arb, s *Session) bool {
				a.Pump(neverEating)
				return a.Status(s) == Drinking
			})
			// TryAtHand is the same rule for one session.
			run(func(a arb, s *Session) bool { return a.TryAtHand(s) })
		})
	}
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestArbiterWaiterAtPeerClosesFastPath: with uncontended sessions at both ends
// of one edge the bottle goes back and forth without a meal — and once a
// session is queued for it at either end, no further meal-less grant of
// that bottle happens at the other until a meal has served the waiter, so
// a stream of sessions on one side cannot starve it. Both halves of the
// rule are walked: the waiter across the edge from the holder, and the
// waiter at the holder (blocked on a second bottle) whose bottle a stream
// across the edge asks for.
func TestArbiterWaiterAtPeerClosesFastPath(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	a.Alive = allAlive
	b01, b12 := g.EdgeIndex(0, 1), g.EdgeIndex(1, 2)
	eatingOnly := func(p graph.ProcID) func(graph.ProcID) bool {
		return func(q graph.ProcID) bool { return q == p }
	}
	submit := func(home graph.ProcID, bottles ...int) *Session {
		t.Helper()
		s, err := a.Submit(home, bottles)
		if err != nil {
			t.Fatalf("Submit(%d, %v): %v", home, bottles, err)
		}
		return s
	}
	// stream submits one more session of the stream at home and reports
	// whether it was granted without a meal; a refused one leaves the queue
	// again so the probe changes nothing.
	stream := func(home graph.ProcID) bool {
		t.Helper()
		s := submit(home, b01)
		if a.TryAtHand(s) {
			a.Release(s)
			return true
		}
		if !a.Cancel(s) {
			t.Fatal("a refused probe could not be withdrawn")
		}
		return false
	}

	// Nobody waits: the two streams hand the bottle back and forth.
	for i := 0; i < 6; i++ {
		home := graph.ProcID(i % 2)
		if !stream(home) || a.Holder(b01) != home {
			t.Fatalf("turn %d: uncontended session at %d not granted meal-less (bottle at %d)", i, home, a.Holder(b01))
		}
	}
	if got := a.SurrenderedGrants(); got != 5 {
		t.Fatalf("SurrenderedGrants = %d after six alternating turns, want 5", got)
	}

	// A waiter across the edge from the holder: the bottle is at 1 and in
	// use there when w queues at 0.
	s1 := submit(1, b01)
	if !a.TryAtHand(s1) {
		t.Fatal("lone session at the holder not granted at hand")
	}
	w := submit(0, b01)
	a.Release(s1)
	for i := 0; i < 3; i++ {
		if stream(1) {
			t.Fatalf("the holder's stream was granted at hand past a waiter at the peer (turn %d)", i)
		}
	}
	// The waiter alone gets the free bottle surrendered; with the holder's
	// next session queued too, both ends ask and only a meal decides.
	s2 := submit(1, b01)
	for i := 0; i < 3; i++ {
		if grants := a.Pump(neverEating); len(grants) != 0 {
			t.Fatalf("granted %v without a meal with sessions queued at both ends", grants)
		}
	}
	if grants := a.Pump(eatingOnly(0)); len(grants) != 1 || grants[0] != w {
		t.Fatalf("the waiter's meal granted %v, want the waiter", grants)
	}
	if a.Holder(b01) != 0 {
		t.Fatalf("bottle at %d after the waiter's meal, want 0", a.Holder(b01))
	}
	if grants := a.Pump(neverEating); len(grants) != 0 {
		t.Fatalf("granted %v with the bottle in use", grants)
	}
	a.Release(w)
	// Served: nobody is queued at 0 any more, so 0 surrenders the bottle
	// to the session that has been waiting at 1.
	if grants := a.Pump(neverEating); len(grants) != 1 || grants[0] != s2 || a.Holder(b01) != 1 {
		t.Fatalf("after the waiter was served: granted %v, bottle at %d; want the queued session at 1", grants, a.Holder(b01))
	}
	a.Release(s2)

	// A waiter at the holder: h needs b01 (at its home, free) and b12, which
	// a session of node 2 drinks from, so it stays queued. The stream across
	// the edge may not pull b01 out from under it.
	busy := submit(2, b12)
	if !a.TryAtHand(busy) {
		t.Fatal("lone session at node 2 not granted")
	}
	h := submit(1, b01, b12)
	if a.TryAtHand(h) {
		t.Fatal("session granted while one of its bottles is in use")
	}
	for i := 0; i < 3; i++ {
		if stream(0) {
			t.Fatalf("the stream across the edge took a bottle its holder has a queued session for (turn %d)", i)
		}
	}
	if a.Holder(b01) != 1 {
		t.Fatalf("bottle moved to %d from under a waiter", a.Holder(b01))
	}
	a.Release(busy)
	if grants := a.Pump(eatingOnly(1)); len(grants) != 1 || grants[0] != h {
		t.Fatalf("the waiter's meal granted %v, want the waiter", grants)
	}
	a.Release(h)
	if !stream(0) {
		t.Fatal("fast path still closed after the waiter was served")
	}
}

// TestArbiterBottlesMoveOnlyInMeals — or by surrender: over a random walk of submits,
// cancels, passes under a random eating oracle, direct at-hand attempts
// and releases, a bottle changes Holder in two ways only — inside its
// collector's meal, or at a meal-less grant to a requester whose peer has
// no queued session for it at that instant — and a pass granted nothing
// it was not the head of a queue for.
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
	var (
		before      []graph.ProcID
		eating      = neverEating
		surrendered = make(map[int]bool) // bottles that crossed at a meal-less grant of this step
		crossings   int
	)
	// The grant hook runs under the arbiter's mutex at the instant of the
	// grant, after its bottles came home: the peer's queue is exactly what
	// the rule saw.
	a.OnGrant = func(s *Session) {
		if eating(s.Home) {
			return // whatever came home did so in the collector's meal
		}
		for _, b := range s.Bottles {
			peer := g.Edges()[b].Other(s.Home)
			if before[b] != peer {
				continue
			}
			if a.wanted(peer, b) {
				t.Errorf("bottle %v crossed to %d without a meal past a session queued at %d", g.Edges()[b], s.Home, peer)
			}
			surrendered[b] = true
			crossings++
		}
	}
	rng := rand.New(rand.NewSource(3))
	var pending, drinking []*Session
	settle := func() { // move granted sessions from pending to drinking
		kept := pending[:0]
		for _, s := range pending {
			switch a.Status(s) {
			case Drinking:
				drinking = append(drinking, s)
			case Pending:
				kept = append(kept, s)
			}
		}
		pending = kept
	}
	atHand, mealMoves := 0, 0
	for i := 0; i < 2000; i++ {
		before = holders()
		clear(surrendered)
		eating = neverEating
		switch rng.Intn(5) {
		case 0:
			home := graph.ProcID(rng.Intn(g.N()))
			idxs := g.IncidentEdgeIndices(home)
			if s, err := a.Submit(home, idxs[:1+rng.Intn(len(idxs))]); err == nil {
				if rng.Intn(4) == 0 {
					a.Cancel(s)
				} else {
					pending = append(pending, s)
				}
			}
		case 1:
			atHand += len(a.Pump(neverEating))
		case 2:
			mask := rng.Intn(1 << g.N())
			eating = func(p graph.ProcID) bool { return mask>>int(p)&1 == 1 }
			a.Pump(eating)
		case 3:
			if len(pending) > 0 && a.TryAtHand(pending[rng.Intn(len(pending))]) {
				atHand++
			}
		case 4:
			if len(drinking) > 0 {
				j := rng.Intn(len(drinking))
				a.Release(drinking[j])
				drinking = append(drinking[:j], drinking[j+1:]...)
			}
		}
		settle()
		for b, now := range holders() {
			if now == before[b] {
				continue
			}
			switch {
			case eating(now):
				mealMoves++
			case !surrendered[b]:
				t.Fatalf("step %d: bottle %v moved %d -> %d with %d not eating and no meal-less grant that asked for it",
					i, g.Edges()[b], before[b], now, now)
			}
		}
	}
	if atHand == 0 || crossings == 0 || mealMoves == 0 {
		t.Fatalf("the walk saw %d at-hand grants, %d surrendered bottles and %d bottles moved by meals; it must exercise all three",
			atHand, crossings, mealMoves)
	}
	if got := a.SurrenderedGrants(); got == 0 || got > int64(crossings) {
		t.Errorf("SurrenderedGrants = %d for %d surrendered bottles", got, crossings)
	}
}

// TestArbiterPumpNeedsReportsHunger: the hunger report comes from the
// state the pass leaves behind — a node whose head was granted at hand,
// at its home or surrendered across the edge, is not hungry; nodes whose
// heads ask for one bottle from both ends are.
func TestArbiterPumpNeedsReportsHunger(t *testing.T) {
	g := graph.Ring(4)
	a := NewArbiter(g, 8)
	a.Alive = allAlive
	atHome, _ := a.Submit(0, []int{g.EdgeIndex(0, 1)})
	across, _ := a.Submit(2, []int{g.EdgeIndex(1, 2)})
	tugA, _ := a.Submit(2, []int{g.EdgeIndex(2, 3)})
	tugB, _ := a.Submit(3, []int{g.EdgeIndex(2, 3)})
	pending := make(map[graph.ProcID]bool)
	grants := a.PumpNeeds(neverEating, func(p graph.ProcID, want bool) { pending[p] = want })
	if len(grants) != 2 || grants[0] != atHome || grants[1] != across {
		t.Fatalf("granted %v, want the session at its bottle's home and the one across an idle edge", grants)
	}
	if a.Status(tugA) != Pending || a.Status(tugB) != Pending {
		t.Fatal("a bottle asked for at both ends was granted without a meal")
	}
	want := map[graph.ProcID]bool{0: false, 1: false, 2: true, 3: true}
	for p, w := range want {
		if got, ok := pending[p]; !ok || got != w {
			t.Errorf("node %d reported hungry=%v (reported=%v), want %v", p, got, ok, w)
		}
	}
}
