package lockservice

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// shadowLedger is the e2e safety oracle: clients record every grant and
// release they observe, and any overlapping ownership of one resource
// is a mutual-exclusion violation.
type shadowLedger struct {
	mu     sync.Mutex
	owner  map[string]string // resource -> session ID currently holding it
	faults []string
}

func newShadowLedger() *shadowLedger {
	return &shadowLedger{owner: make(map[string]string)}
}

func (l *shadowLedger) granted(resources []string, sessionID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range resources {
		if prev, held := l.owner[r]; held {
			l.faults = append(l.faults, fmt.Sprintf("resource %s granted to %s while held by %s", r, sessionID, prev))
			continue
		}
		l.owner[r] = sessionID
	}
}

func (l *shadowLedger) released(resources []string, sessionID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range resources {
		if l.owner[r] == sessionID {
			delete(l.owner, r)
		}
	}
}

func (l *shadowLedger) violations() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.faults...)
}

// TestEndToEndServiceSurvivesMaliciousCrash drives dinerd the way a
// deployment would (a one-shard Router): concurrent HTTP clients
// acquiring and releasing edge locks, then a malicious crash injected
// through the admin endpoint, then load restricted to workers at
// distance >= 2 from the victim. It asserts (a) no two clients ever hold the same lock, and
// (b) every far lock is still granted after the crash.
func TestEndToEndServiceSurvivesMaliciousCrash(t *testing.T) {
	g := DemoTopology() // 3x4 grid; victim 0 is a corner
	const victim = graph.ProcID(0)

	rt := startRouter(t, 1, Config{
		Graph:     g,
		Seed:      7,
		TickEvery: 300 * time.Microsecond,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	ledger := newShadowLedger()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// acquireHold grabs a resource set through the HTTP API, verifies it
	// against the ledger, holds briefly, and releases.
	acquireHold := func(c *Client, timeout time.Duration, resources ...string) (bool, error) {
		grant, err := c.Acquire(ctx, resources, timeout, 0)
		if err != nil {
			return false, err
		}
		ledger.granted(grant.Resources, grant.SessionID)
		time.Sleep(2 * time.Millisecond)
		ledger.released(grant.Resources, grant.SessionID)
		if err := c.Release(ctx, grant.SessionID); err != nil {
			return true, fmt.Errorf("release %s: %w", grant.SessionID, err)
		}
		return true, nil
	}

	allEdges := make([]string, 0, g.EdgeCount())
	for _, e := range g.Edges() {
		allEdges = append(allEdges, EdgeName(e))
	}

	// Phase 1: 8 clients hammer the whole edge set concurrently.
	var (
		wg       sync.WaitGroup
		grantsMu sync.Mutex
		grants   int
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			for i := 0; i < 12; i++ {
				res := allEdges[(w*5+i*3)%len(allEdges)]
				ok, err := acquireHold(c, 2*time.Second, res)
				if err != nil {
					var apiErr *APIError
					if errors.As(err, &apiErr) && apiErr.StatusCode == 408 {
						continue // contention timeout: acceptable, retry next loop
					}
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if ok {
					grantsMu.Lock()
					grants++
					grantsMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if grants < 50 {
		t.Fatalf("phase 1 completed only %d acquire/release cycles", grants)
	}

	// Quiesce: no leases, no queued sessions, before the fault lands.
	c := NewClient(ts.URL)
	waitFor(t, ctx, 5*time.Second, "quiescence", func() (bool, string) {
		rep, err := c.Status(ctx)
		if err != nil {
			return false, err.Error()
		}
		return rep.ActiveLeases == 0 && rep.QueueDepth == 0,
			fmt.Sprintf("leases=%d queue=%d", rep.ActiveLeases, rep.QueueDepth)
	})

	// Inject a malicious crash: 20 garbage steps, then halt.
	if err := c.Crash(ctx, int(victim), 20); err != nil {
		t.Fatalf("crash injection: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "victim halt", func() (bool, string) {
		rep, err := c.Status(ctx)
		if err != nil {
			return false, err.Error()
		}
		for _, n := range rep.Nodes {
			if n.ID == int(victim) {
				return n.Dead, n.State
			}
		}
		return false, "victim missing from status"
	})

	// Phase 2: load only the far edges — both endpoints at distance >= 2
	// from the victim. The paper's failure locality is 2, and nearer
	// workers have no demand, so none of these may starve. A lone far
	// lock could be granted at hand, with no dining round to be local
	// about, so the load is overlapping two-lock sets (see farPairs).
	pairs := farPairs(t, g, victim)
	srv := rt.Shard(0)
	before, eatsBefore := mealBackedGrants(srv), farEats(srv, victim)
	for _, pair := range pairs {
		wg.Add(1)
		go func(pair [2]string) {
			defer wg.Done()
			c := NewClient(ts.URL)
			deadline := time.Now().Add(25 * time.Second)
			for {
				ok, err := acquireHold(c, 1500*time.Millisecond, pair[0], pair[1])
				if ok && err == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("far locks %v never granted after the crash (last err: %v)", pair, err)
					return
				}
			}
		}(pair)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if meals, eats := mealBackedGrants(srv)-before, farEats(srv, victim)-eatsBefore; meals < 1 || eats < 1 {
		t.Fatalf("%d far sets granted after the crash, %d of them through a dining round (%d far meals): the locality claim went untested",
			len(pairs), meals, eats)
	}

	// Phase 3: revive the victim with garbage state through the admin
	// API. Stabilization absorbs the arbitrary state, the node rejoins,
	// and locks incident to it are granted again.
	if _, err := c.Restart(ctx, int(victim), true); err != nil {
		t.Fatalf("restart injection: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "victim revival", func() (bool, string) {
		rep, err := c.Status(ctx)
		if err != nil {
			return false, err.Error()
		}
		for _, n := range rep.Nodes {
			if n.ID == int(victim) {
				return !n.Dead && n.Incarnation > 0, fmt.Sprintf("dead=%v inc=%d", n.Dead, n.Incarnation)
			}
		}
		return false, "victim missing from status"
	})
	var victimEdges []string
	for _, e := range g.Edges() {
		if e.A == victim || e.B == victim {
			victimEdges = append(victimEdges, EdgeName(e))
		}
	}
	for _, res := range victimEdges {
		wg.Add(1)
		go func(res string) {
			defer wg.Done()
			c := NewClient(ts.URL)
			deadline := time.Now().Add(25 * time.Second)
			for {
				ok, err := acquireHold(c, 1500*time.Millisecond, res)
				if ok && err == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("victim-incident lock %s never granted after revival (last err: %v)", res, err)
					return
				}
			}
		}(res)
	}
	wg.Wait()

	if v := ledger.violations(); len(v) > 0 {
		t.Fatalf("mutual exclusion violated:\n%s", strings.Join(v, "\n"))
	}
}

// farPairs returns the post-crash load of the locality tests: for every
// worker at distance >= 2 from the victim, two-lock sets of its far
// edges (both endpoints at distance >= 2), covering every far edge. The
// sets of adjacent workers overlap on the edge between them, and a
// bottle sits at one endpoint at a time, so of two overlapping sets at
// most one can be granted at hand: serving them all forces bottles
// across edges, which only a meal of a far worker can do.
func farPairs(t *testing.T, g *graph.Graph, victim graph.ProcID) [][2]string {
	t.Helper()
	far := func(p graph.ProcID) bool { return g.Dist(p, victim) >= 2 }
	covered := make(map[int]bool)
	var pairs [][2]string
	for p := 0; p < g.N(); p++ {
		var edges []int
		for _, b := range g.IncidentEdgeIndices(graph.ProcID(p)) {
			if e := g.Edges()[b]; far(e.A) && far(e.B) {
				edges = append(edges, b)
			}
		}
		if len(edges) < 2 {
			continue
		}
		for i := range edges[1:] {
			covered[edges[i]], covered[edges[i+1]] = true, true
			pairs = append(pairs, [2]string{EdgeName(g.Edges()[edges[i]]), EdgeName(g.Edges()[edges[i+1]])})
		}
	}
	for b, e := range g.Edges() {
		if far(e.A) && far(e.B) && !covered[b] {
			t.Fatalf("far edge %v is in no two-lock set; topology assumption broken", e)
		}
	}
	if len(covered) < 8 {
		t.Fatalf("only %d far edges on the demo grid; topology assumption broken", len(covered))
	}
	return pairs
}

// mealBackedGrants counts the server's client-visible grants that were
// not granted at hand. The arbiter's at-hand count also holds grants a
// client gave up on, so the difference can only undercount.
func mealBackedGrants(s *Server) int64 {
	return s.Metrics().Grants.Load() - s.Arbiter().AtHandGrants()
}

// farEats sums the completed meals of the workers at distance >= 2 from
// the victim.
func farEats(s *Server, victim graph.ProcID) int64 {
	var sum int64
	for p, eats := range s.Network().Eats() {
		if s.Graph().Dist(graph.ProcID(p), victim) >= 2 {
			sum += eats
		}
	}
	return sum
}

// waitFor polls cond until it reports true or the budget elapses.
func waitFor(t *testing.T, ctx context.Context, budget time.Duration, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(budget)
	detail := ""
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var ok bool
		ok, detail = cond()
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (%s)", what, detail)
}
