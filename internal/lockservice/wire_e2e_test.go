package lockservice

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/wire"
)

// startWireListener serves the backend over the framed binary
// transport on a loopback port.
func startWireListener(t *testing.T, backend wire.Backend) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := wire.NewServer(wire.ServerConfig{Backend: backend})
	go ws.Serve(ln)
	t.Cleanup(ws.Close)
	return ln.Addr().String()
}

// TestWireEndToEndSurvivesMaliciousCrash is the wire-transport mirror
// of TestEndToEndServiceSurvivesMaliciousCrash: concurrent clients
// over the framed binary protocol, a malicious crash injected through
// the HTTP admin surface (admin stays HTTP-only), far-edge load
// proving failure locality 2, and the shadow ledger proving mutual
// exclusion. Run under -race in CI.
func TestWireEndToEndSurvivesMaliciousCrash(t *testing.T) {
	g := DemoTopology() // 3x4 grid; victim 0 is a corner
	const victim = graph.ProcID(0)

	rt := startRouter(t, 1, Config{
		Graph:     g,
		Seed:      7,
		TickEvery: 300 * time.Microsecond,
	})
	wireAddr := startWireListener(t, rt.WireBackend())
	ts := httptest.NewServer(rt.Handler()) // admin + status facade
	defer ts.Close()

	ledger := newShadowLedger()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	acquireHold := func(c *wire.Client, timeout time.Duration, resources ...string) (bool, error) {
		grant, err := c.Acquire(ctx, resources, timeout, 0)
		if err != nil {
			return false, err
		}
		ledger.granted(resources, grant.SessionID)
		time.Sleep(2 * time.Millisecond)
		ledger.released(resources, grant.SessionID)
		if err := c.Release(ctx, grant.SessionID); err != nil {
			return true, fmt.Errorf("release %s: %w", grant.SessionID, err)
		}
		return true, nil
	}

	allEdges := make([]string, 0, g.EdgeCount())
	for _, e := range g.Edges() {
		allEdges = append(allEdges, EdgeName(e))
	}

	// Phase 1: 8 wire clients hammer the whole edge set concurrently,
	// sharing pooled pipelined connections.
	var (
		wg       sync.WaitGroup
		grantsMu sync.Mutex
		grants   int
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := wire.NewClient(wireAddr)
			defer c.Close()
			for i := 0; i < 12; i++ {
				res := allEdges[(w*5+i*3)%len(allEdges)]
				ok, err := acquireHold(c, 2*time.Second, res)
				if err != nil {
					var wireErr *wire.Error
					if errors.As(err, &wireErr) && wireErr.Code == 408 {
						continue // contention timeout: acceptable
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

	// Quiesce before injecting the fault; status rides the HTTP facade,
	// demonstrating both transports serving the same core concurrently.
	hc := NewClient(ts.URL)
	waitFor(t, ctx, 5*time.Second, "quiescence", func() (bool, string) {
		rep, err := hc.Status(ctx)
		if err != nil {
			return false, err.Error()
		}
		return rep.ActiveLeases == 0 && rep.QueueDepth == 0,
			fmt.Sprintf("leases=%d queue=%d", rep.ActiveLeases, rep.QueueDepth)
	})

	if err := hc.Crash(ctx, int(victim), 20); err != nil {
		t.Fatalf("crash injection: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "victim halt", func() (bool, string) {
		rep, err := hc.Status(ctx)
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

	// Phase 2: far workers only — overlapping two-lock sets of edges
	// with both endpoints at distance >= 2 from the victim (farPairs)
	// must still be granted (failure locality 2), over wire, and some of
	// them through a dining round, not at hand.
	pairs := farPairs(t, g, victim)
	srv := rt.Shard(0)
	before, eatsBefore := mealBackedGrants(srv), farEats(srv, victim)
	for _, pair := range pairs {
		wg.Add(1)
		go func(pair [2]string) {
			defer wg.Done()
			c := wire.NewClient(wireAddr)
			defer c.Close()
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

	// Phase 3: garbage revival through the admin API; victim-incident
	// locks must be granted again over wire.
	if _, err := hc.Restart(ctx, int(victim), true); err != nil {
		t.Fatalf("restart injection: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "victim revival", func() (bool, string) {
		rep, err := hc.Status(ctx)
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
			c := wire.NewClient(wireAddr)
			defer c.Close()
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

// TestWireFacadeParity proves the two transports front one core: a
// lease granted over wire is visible to and releasable through the
// HTTP facade, and vice versa; renew works across transports; a 409
// from a sharded router carries the live generation over wire exactly
// as it does over HTTP.
func TestWireFacadeParity(t *testing.T) {
	router := NewRouter(RouterConfig{
		Shards: 2,
		Base: Config{
			Graph:     graph.Grid(2, 2),
			Seed:      11,
			TickEvery: 300 * time.Microsecond,
		},
	})
	router.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Stop(ctx)
	}()
	wireAddr := startWireListener(t, router.WireBackend())
	ts := httptest.NewServer(router.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wc := wire.NewClient(wireAddr)
	defer wc.Close()
	hc := NewClient(ts.URL)

	// Pick one key per shard from the routable catalog.
	var names []string
	for _, e := range router.Shard(0).Graph().Edges() {
		names = append(names, EdgeName(e))
	}
	keys := router.ShardKeys(names)
	if len(keys[0]) == 0 || len(keys[1]) == 0 {
		t.Fatalf("catalog did not cover both shards: %v", keys)
	}

	// Wire acquire -> HTTP status sees the lease -> HTTP release frees it.
	g0, err := wc.Acquire(ctx, []string{keys[0][0]}, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("wire acquire: %v", err)
	}
	rep, err := hc.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if rep.ActiveLeases != 1 {
		t.Fatalf("HTTP facade reports %d active leases for a wire grant", rep.ActiveLeases)
	}
	if err := hc.Release(ctx, g0.SessionID); err != nil {
		t.Fatalf("HTTP release of wire-granted session: %v", err)
	}

	// HTTP acquire -> wire renew extends it -> wire release frees it.
	g1, err := hc.Acquire(ctx, []string{keys[1][0]}, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("HTTP acquire: %v", err)
	}
	if ttl, err := wc.Renew(ctx, g1.SessionID, 10*time.Second); err != nil || ttl <= 0 {
		t.Fatalf("wire renew of HTTP-granted session: %v (ttl %v)", err, ttl)
	}
	if err := wc.Release(ctx, g1.SessionID); err != nil {
		t.Fatalf("wire release of HTTP-granted session: %v", err)
	}

	// A shard-spanning span session is transport-agnostic too: acquired
	// over wire, its two sub-leases are visible to the HTTP facade,
	// renewable and releasable through it as one unit.
	spanSet := []string{keys[0][0], keys[1][0]}
	gs, err := wc.Acquire(ctx, spanSet, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("wire span acquire: %v", err)
	}
	if !strings.HasPrefix(gs.SessionID, "span:") {
		t.Fatalf("wire span session %q lacks span: prefix", gs.SessionID)
	}
	rep, err = hc.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if rep.ActiveLeases != 2 {
		t.Fatalf("HTTP facade reports %d active leases for a wire span (one sub-lease per shard expected)", rep.ActiveLeases)
	}
	if ttl, err := hc.Renew(ctx, gs.SessionID, 10*time.Second); err != nil || ttl <= 0 {
		t.Fatalf("HTTP renew of wire-granted span: %v (ttl %v)", err, ttl)
	}
	if err := hc.Release(ctx, gs.SessionID); err != nil {
		t.Fatalf("HTTP release of wire-granted span: %v", err)
	}

	// And the reverse direction: HTTP span acquire, wire renew/release.
	gh, err := hc.Acquire(ctx, spanSet, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("HTTP span acquire: %v", err)
	}
	if !strings.HasPrefix(gh.SessionID, "span:") {
		t.Fatalf("HTTP span session %q lacks span: prefix", gh.SessionID)
	}
	if ttl, err := wc.Renew(ctx, gh.SessionID, 10*time.Second); err != nil || ttl <= 0 {
		t.Fatalf("wire renew of HTTP-granted span: %v (ttl %v)", err, ttl)
	}
	if err := wc.Release(ctx, gh.SessionID); err != nil {
		t.Fatalf("wire release of HTTP-granted span: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "span quiescence", func() (bool, string) {
		rep, err := hc.Status(ctx)
		if err != nil {
			return false, err.Error()
		}
		return rep.ActiveLeases == 0, fmt.Sprintf("leases=%d", rep.ActiveLeases)
	})

	// Same key, same placement on both transports: the wire hello's
	// generation matches the ring endpoint's.
	info, err := hc.Ring(ctx)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	if wc.RingGen() != info.Generation {
		t.Fatalf("wire hello generation %d != ring generation %d", wc.RingGen(), info.Generation)
	}

	// A ring membership change invalidates cached generations on both
	// transports; the wire client recovers through the 409 retry path.
	if err := router.RingLeave(1); err != nil {
		t.Fatalf("ring leave: %v", err)
	}
	g2, err := wc.Acquire(ctx, []string{keys[0][0]}, 2*time.Second, 0)
	if err != nil {
		t.Fatalf("wire acquire across ring change: %v", err)
	}
	if wc.RingGen() != info.Generation+1 {
		t.Fatalf("wire client did not adopt the post-leave generation: %d", wc.RingGen())
	}
	if err := wc.Release(ctx, g2.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestServerRenewExtendsLease proves a renewed lease outlives its
// original TTL and that renewal respects fencing.
func TestServerRenewExtendsLease(t *testing.T) {
	rt := startRouter(t, 1, Config{
		Graph:      graph.Grid(2, 2),
		Seed:       3,
		TickEvery:  300 * time.Microsecond,
		DefaultTTL: 400 * time.Millisecond,
	})
	srv := rt.Shard(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	res := EdgeName(srv.Graph().Edges()[0])
	g, err := rt.Acquire(ctx, []string{res}, 0, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Keep renewing past the original TTL; the lease must stay live.
	for i := 0; i < 4; i++ {
		time.Sleep(250 * time.Millisecond)
		if _, err := rt.Renew(g.SessionID, 0); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if srv.ActiveLeases() != 1 {
		t.Fatalf("lease expired despite renewals")
	}
	if err := rt.Release(g.SessionID); err != nil {
		t.Fatalf("release after renewals: %v", err)
	}

	// A lease left unrenewed past its TTL is expired, and renewing it
	// then reports ErrNotFound.
	g2, err := rt.Acquire(ctx, []string{res}, 300*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	waitFor(t, ctx, 5*time.Second, "TTL expiry", func() (bool, string) {
		return srv.ActiveLeases() == 0, fmt.Sprintf("leases=%d", srv.ActiveLeases())
	})
	if _, err := rt.Renew(g2.SessionID, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renew of expired lease: got %v want ErrNotFound", err)
	}
}
