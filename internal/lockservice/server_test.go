package lockservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/wire"
)

// fastConfig returns a server config tuned for tests: a tiny topology
// and a fast substrate tick so grants land in milliseconds.
func fastConfig(g *graph.Graph) Config {
	return Config{
		Graph:          g,
		Seed:           1,
		TickEvery:      300 * time.Microsecond,
		DefaultTimeout: 5 * time.Second,
	}
}

func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Stop(ctx)
	})
	return s
}

func TestAcquireReleaseCycle(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	g1, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if g1.Node != 0 && g1.Node != 1 {
		t.Fatalf("granting node %d is not an endpoint of edge 0-1", g1.Node)
	}

	// While held, a rival acquire of the same resource must time out.
	rivalCtx, rivalCancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer rivalCancel()
	if _, err := s.Acquire(rivalCtx, []string{"edge:0-1"}, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("rival acquire of a held lock: err = %v, want ErrTimeout", err)
	}

	if err := s.Release(g1.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := s.Release(g1.SessionID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double release: err = %v, want ErrNotFound", err)
	}

	// Released lock is acquirable again.
	g2, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	if err := s.Release(g2.SessionID); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireUnmappable(t *testing.T) {
	s := startServer(t, fastConfig(DemoTopology()))
	ctx := context.Background()
	if _, err := s.Acquire(ctx, []string{"edge:0-1", "edge:6-7"}, 0); !errors.Is(err, ErrUnmappable) {
		t.Fatalf("err = %v, want ErrUnmappable", err)
	}
	if s.Metrics().RejectedUnmappable.Load() != 1 {
		t.Fatal("RejectedUnmappable counter not bumped")
	}
}

func TestAcquireQueueFull(t *testing.T) {
	cfg := fastConfig(graph.Grid(2, 2))
	cfg.QueueLimit = 1
	s := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// This two-bottle set has node 0 as its only candidate home, so one
	// queue takes all the pressure.
	res := []string{"edge:0-1", "edge:0-2"}
	g1, err := s.Acquire(ctx, res, 0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer s.Release(g1.SessionID)

	// A second request parks in node 0's queue (the lock is held)...
	blockedErr := make(chan error, 1)
	blockedCtx, blockedCancel := context.WithCancel(ctx)
	defer blockedCancel()
	go func() {
		_, err := s.Acquire(blockedCtx, res, 0)
		blockedErr <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Arbiter().QueueDepth(0) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// ...so a third is rejected for backpressure.
	if _, err := s.Acquire(ctx, res, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: err = %v, want ErrQueueFull", err)
	}
	if s.Metrics().RejectedQueueFull.Load() != 1 {
		t.Fatal("RejectedQueueFull counter not bumped")
	}
	blockedCancel()
	if err := <-blockedErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocked acquire after cancel: err = %v, want ErrTimeout", err)
	}
}

func TestLeaseExpiry(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	g1, err := s.Acquire(ctx, []string{"edge:0-1"}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The janitor must reclaim the lease, making the lock acquirable
	// again without any client release.
	g2, err := s.Acquire(ctx, []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatalf("acquire after TTL expiry: %v", err)
	}
	if err := s.Release(g1.SessionID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of expired lease: err = %v, want ErrNotFound", err)
	}
	if s.Metrics().Expirations.Load() == 0 {
		t.Fatal("Expirations counter not bumped")
	}
	s.Release(g2.SessionID)
}

func TestDrainRejectsNewAcquires(t *testing.T) {
	s := NewServer(fastConfig(graph.Grid(2, 2)))
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Stop(ctx)
	if _, err := s.Acquire(context.Background(), []string{"edge:0-1"}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain: err = %v, want ErrDraining", err)
	}
	s.Stop(ctx) // idempotent
}

func TestInjectCrashValidation(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	if err := s.InjectCrash(-1, 0); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := s.InjectCrash(99, 5); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := s.InjectCrash(3, 0); err != nil {
		t.Fatalf("valid kill rejected: %v", err)
	}
	if s.Metrics().CrashesInjected.Load() != 1 {
		t.Fatal("CrashesInjected counter not bumped")
	}
}

func TestAcquireUnserviceableWhenHomesDead(t *testing.T) {
	s := startServer(t, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.InjectCrash(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectCrash(1, 0); err != nil {
		t.Fatal(err)
	}
	// Both endpoints of edge 0-1 are dead. Poll with short per-attempt
	// budgets: the kill lands at each node's next event, so the first
	// attempts may still see a live snapshot and park until timeout.
	deadline := time.Now().Add(4 * time.Second)
	for {
		attemptCtx, attemptCancel := context.WithTimeout(ctx, 100*time.Millisecond)
		_, err := s.Acquire(attemptCtx, []string{"edge:0-1"}, 0)
		attemptCancel()
		if errors.Is(err, ErrUnserviceable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acquire on dead homes: err = %v, want ErrUnserviceable", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatusReportShape(t *testing.T) {
	g := DemoTopology()
	s := startServer(t, fastConfig(g))
	rep := s.Status()
	if rep.Workers != g.N() || rep.Locks != g.EdgeCount() {
		t.Fatalf("status reports %d workers / %d locks, want %d / %d", rep.Workers, rep.Locks, g.N(), g.EdgeCount())
	}
	if len(rep.Edges) != g.EdgeCount() || len(rep.Nodes) != g.N() {
		t.Fatalf("status has %d edges / %d nodes", len(rep.Edges), len(rep.Nodes))
	}
	for _, name := range rep.Edges {
		if !strings.HasPrefix(name, "edge:") {
			t.Fatalf("edge name %q lacks canonical form", name)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	rt := startRouter(t, 1, fastConfig(graph.Grid(2, 2)))
	wire.NewServer(wire.ServerConfig{Backend: rt.WireBackend()}).Register(rt.Families())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g1, err := rt.Acquire(ctx, []string{"edge:0-1"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Release(g1.SessionID)

	var buf bytes.Buffer
	rt.WriteMetrics(&buf)
	text := buf.String()
	names := MetricNames()
	if len(names) < 6 {
		t.Fatalf("metric catalog has %d families, want >= 6", len(names))
	}
	for _, name := range names {
		if !strings.Contains(text, "\n"+name) && !strings.HasPrefix(text, name) {
			t.Fatalf("metrics output missing family %q", name)
		}
	}
	for _, want := range []string{
		"dinerd_grants_total 1",
		"dinerd_releases_total 1",
		"dinerd_acquire_wait_seconds_count 1",
		`le="+Inf"`,
		"# TYPE dinerd_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

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

// TestServerStartAddsLoopAndJanitor: a started shard is two goroutines —
// its network's event loop, which also runs the grant pump, and the lease
// janitor — whatever its worker count, and it grants through them.
func TestServerStartAddsLoopAndJanitor(t *testing.T) {
	base := settledGoroutines()
	s := NewServer(fastConfig(graph.Grid(3, 3)))
	s.Start()
	waitGoroutines(t, base+2)
	g, err := s.Acquire(context.Background(), []string{"edge:0-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(g.SessionID); err != nil {
		t.Fatal(err)
	}
	s.Stop(context.Background())
	waitGoroutines(t, base)
}

// TestRouterShardsRunTwoGoroutinesEach: four grid(3x3) shards are eight
// goroutines, not one per worker.
func TestRouterShardsRunTwoGoroutinesEach(t *testing.T) {
	base := settledGoroutines()
	r := NewRouter(RouterConfig{Shards: 4, Base: fastConfig(graph.Grid(3, 3))})
	r.Start()
	waitGoroutines(t, base+8)
	r.Stop(context.Background())
	waitGoroutines(t, base)
}

// TestLeaseIDMatchesSprintf: leaseID builds the session ID byte for byte
// as fmt.Sprintf("k%d:s%08x-%d") did, padding included, and
// sessionCounter parses every one back.
func TestLeaseIDMatchesSprintf(t *testing.T) {
	for _, ctr := range []uint64{0, 1, 0xf, 0x10, 0x1234567, 0xffffffff, 1 << 40} {
		for _, shard := range []int{0, 17} {
			for _, home := range []graph.ProcID{0, 11} {
				want := fmt.Sprintf("k%d:s%08x-%d", shard, ctr, home)
				got := leaseID(shard, ctr, home)
				if got != want {
					t.Errorf("leaseID(%d, %#x, %d) = %q, want %q", shard, ctr, home, got, want)
				}
				if n, ok := sessionCounter(got); !ok || n != ctr {
					t.Errorf("sessionCounter(%q) = %#x, %v; want %#x, true", got, n, ok, ctr)
				}
			}
		}
	}
}

// TestAcquireCtxCarriesBudgetWithoutTimer: a wire acquire's timeout_ms
// reaches the shard as a deadline on a context that is never canceled by
// it — no timer behind it — while an earlier deadline already on the
// caller's context wins.
func TestAcquireCtxCarriesBudgetWithoutTimer(t *testing.T) {
	bg := context.Background()
	if ctx := acquireCtx(bg, wire.AcquireReq{}); ctx != bg {
		t.Fatal("no timeout: acquireCtx must pass the context through")
	}
	before := time.Now()
	ctx := acquireCtx(bg, wire.AcquireReq{Timeout: time.Hour})
	dl, ok := ctx.Deadline()
	if !ok || dl.Before(before.Add(time.Hour)) || dl.After(time.Now().Add(time.Hour)) {
		t.Fatalf("deadline %v (set %v), want one hour from the call", dl, ok)
	}
	if ctx.Done() != nil || ctx.Err() != nil {
		t.Fatal("the budget context must not cancel itself: Done and Err are its parent's")
	}
	short, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	if ctx := acquireCtx(short, wire.AcquireReq{Timeout: time.Hour}); ctx != short {
		t.Fatal("an earlier deadline on the caller's context must win")
	}
}

// TestWireAcquireBudgetExpires: over the wire backend a rival acquire of
// a held lock is rejected 408 once its timeout_ms passes — enforced by
// the shard's one wait timer, since the budget context never fires.
func TestWireAcquireBudgetExpires(t *testing.T) {
	rt := startRouter(t, 1, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	held, err := rt.Acquire(ctx, []string{"edge:0-1"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Release(held.SessionID)
	const budget = 100 * time.Millisecond
	start := time.Now()
	_, err = rt.WireBackend().Acquire(context.Background(), wire.AcquireReq{Resources: []string{"edge:0-1"}, Timeout: budget})
	took := time.Since(start)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != 408 {
		t.Fatalf("rival wire acquire of a held lock: %v, want a 408", err)
	}
	if took < budget || took > 2*time.Second {
		t.Fatalf("rejected after %v, want its %v budget (server default 5s)", took, budget)
	}
}
