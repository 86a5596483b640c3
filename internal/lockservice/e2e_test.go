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

	// acquireHold grabs one resource through the HTTP API, verifies it
	// against the ledger, holds briefly, and releases.
	acquireHold := func(c *Client, resource string, timeout time.Duration) (bool, error) {
		grant, err := c.Acquire(ctx, []string{resource}, timeout, 0)
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
				ok, err := acquireHold(c, res, 2*time.Second)
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
	// workers have no demand, so none of these may starve.
	var farEdges []string
	for _, e := range g.Edges() {
		if g.Dist(e.A, victim) >= 2 && g.Dist(e.B, victim) >= 2 {
			farEdges = append(farEdges, EdgeName(e))
		}
	}
	if len(farEdges) < 8 {
		t.Fatalf("only %d far edges on the demo grid; topology assumption broken", len(farEdges))
	}
	for _, res := range farEdges {
		wg.Add(1)
		go func(res string) {
			defer wg.Done()
			c := NewClient(ts.URL)
			deadline := time.Now().Add(25 * time.Second)
			for {
				ok, err := acquireHold(c, res, 1500*time.Millisecond)
				if ok && err == nil {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("far lock %s never granted after the crash (last err: %v)", res, err)
					return
				}
			}
		}(res)
	}
	wg.Wait()
	if t.Failed() {
		return
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
				ok, err := acquireHold(c, res, 1500*time.Millisecond)
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
