package lockservice

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/graph"
)

// TestMigrateKeyMovesPlacement: an uncontended migration commits
// immediately (nothing to drain), bumps the generation twice (fence +
// override), lands in the override table published by /v1/ring, and
// routes new acquires to the destination. Migrating the key back to
// its hash home clears the pin rather than stacking a redundant one.
func TestMigrateKeyMovesPlacement(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byShard := rt.ShardKeys(catalog(32))
	key := byShard[0][0]
	gen0 := rt.RingInfo().Generation

	if err := rt.MigrateKey(key, 1); err != nil {
		t.Fatalf("MigrateKey: %v", err)
	}
	info := rt.RingInfo()
	if info.Generation != gen0+2 {
		t.Fatalf("generation after migrate = %d, want %d (fence + override)", info.Generation, gen0+2)
	}
	if got, ok := info.Overrides[key]; !ok || got != 1 {
		t.Fatalf("override table = %v, want %q -> 1", info.Overrides, key)
	}
	if count, og := rt.OverrideState(); count != 1 || og != info.Generation {
		t.Fatalf("OverrideState = (%d, %d), want (1, %d)", count, og, info.Generation)
	}
	g, err := rt.Acquire(ctx, []string{key}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after migrate: %v", err)
	}
	if !strings.HasPrefix(g.SessionID, "k1:") {
		t.Fatalf("post-migrate grant %q not on shard 1", g.SessionID)
	}
	if err := rt.Release(g.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
	if got := rt.Metrics().Rebalances.Load(); got != 1 {
		t.Fatalf("Rebalances = %d, want 1", got)
	}

	// Degenerate moves are rejected without touching the epoch. A move
	// to a shard that cannot exist is a request defect (errMigrateInvalid,
	// 400 over HTTP), not a state conflict.
	if err := rt.MigrateKey(key, 1); err == nil {
		t.Fatal("migrate to current placement succeeded, want error")
	} else if errors.Is(err, errMigrateInvalid) {
		t.Fatalf("migrate to current placement = %v, want a state conflict, not errMigrateInvalid", err)
	}
	if err := rt.MigrateKey(key, 7); !errors.Is(err, errMigrateInvalid) {
		t.Fatalf("migrate to out-of-range shard = %v, want errMigrateInvalid", err)
	}

	// Back to the hash home: the pin is deleted, not shadowed.
	if err := rt.MigrateKey(key, 0); err != nil {
		t.Fatalf("MigrateKey back: %v", err)
	}
	if count, _ := rt.OverrideState(); count != 0 {
		t.Fatalf("override count after round trip = %d, want 0", count)
	}
	g, err = rt.Acquire(ctx, []string{key}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after round trip: %v", err)
	}
	if !strings.HasPrefix(g.SessionID, "k0:") {
		t.Fatalf("round-trip grant %q not back on shard 0", g.SessionID)
	}
	_ = rt.Release(g.SessionID)
}

// TestMigrateKeyDrainsAndFences: with a live holder, the migration
// fences the key (new acquires bounce 409 immediately, no queueing
// behind the drain) and blocks until the holder releases; only then
// does the override land. The 409 carries the live generation, so the
// HTTP client's retry loop walks over the epoch without operator help.
func TestMigrateKeyDrainsAndFences(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byShard := rt.ShardKeys(catalog(32))
	key := byShard[0][0]

	holder, err := rt.Acquire(ctx, []string{key}, 30*time.Second, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	gen0 := rt.RingInfo().Generation
	done := make(chan error, 1)
	go func() { done <- rt.MigrateKey(key, 1) }()

	// The fence bumps the generation before the drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for rt.RingInfo().Generation == gen0 {
		if time.Now().After(deadline) {
			t.Fatal("migration fence never landed")
		}
		time.Sleep(time.Millisecond)
	}
	// A fenced key bounces instantly with 409 — it must not enqueue a
	// waiter that could steal the lease mid-drain.
	if _, err := rt.Acquire(ctx, []string{key}, time.Second, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("fenced acquire: err = %v, want ErrWrongShard", err)
	}
	// A span naming the fenced key bounces the same way.
	pair := spanningPair(t, rt)
	if pair[0] == key {
		if _, err := rt.Acquire(ctx, pair, time.Second, 0); !errors.Is(err, ErrWrongShard) {
			t.Fatalf("fenced span acquire: err = %v, want ErrWrongShard", err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("migration committed with a live holder: %v", err)
	default:
	}

	if err := rt.Release(holder.SessionID); err != nil {
		t.Fatalf("holder release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("migration after drain: %v", err)
	}
	g, err := rt.Acquire(ctx, []string{key}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after migrate: %v", err)
	}
	if !strings.HasPrefix(g.SessionID, "k1:") {
		t.Fatalf("post-migrate grant %q not on shard 1", g.SessionID)
	}
	_ = rt.Release(g.SessionID)
	if fences := rt.Metrics().MigrationFences.Load(); fences < 1 {
		t.Fatal("no migration-fence rejection recorded")
	}
}

// TestMigrateKeyAbortsOnDrainTimeout: a holder that outlives the drain
// budget aborts the migration — the fence lifts under a fresh epoch,
// placement is unchanged, and the abort counter ticks. Exclusion is
// never traded for progress.
func TestMigrateKeyAbortsOnDrainTimeout(t *testing.T) {
	rt := NewRouter(RouterConfig{
		Shards:         2,
		Base:           fastConfig(graph.Grid(2, 2)),
		MigrationDrain: 100 * time.Millisecond,
	})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byShard := rt.ShardKeys(catalog(32))
	key := byShard[0][0]

	holder, err := rt.Acquire(ctx, []string{key}, 30*time.Second, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	err = rt.MigrateKey(key, 1)
	if err == nil || !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("MigrateKey with stuck holder: err = %v, want drain-timeout abort", err)
	}
	if got := rt.Metrics().RebalancesAborted.Load(); got != 1 {
		t.Fatalf("RebalancesAborted = %d, want 1", got)
	}
	if got := rt.Metrics().Rebalances.Load(); got != 0 {
		t.Fatalf("Rebalances = %d, want 0", got)
	}
	if count, _ := rt.OverrideState(); count != 0 {
		t.Fatalf("override count after abort = %d, want 0", count)
	}
	if err := rt.Release(holder.SessionID); err != nil {
		t.Fatalf("holder release: %v", err)
	}
	// The fence is lifted: the key acquires again at its old home.
	g, err := rt.Acquire(ctx, []string{key}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after abort: %v", err)
	}
	if !strings.HasPrefix(g.SessionID, "k0:") {
		t.Fatalf("post-abort grant %q not on shard 0 (placement must be unchanged)", g.SessionID)
	}
	_ = rt.Release(g.SessionID)
}

// TestStopAbortsADrainingMigration: Stop must not wait out a
// migration's drain. A migration running under the router's wait group,
// as rebalanceLoop runs it, drains a key whose holder keeps it for 20 s;
// Stop with a 1 s context must return within that context, and the
// migration must abort — fence lifted, counted, an error returned.
func TestStopAbortsADrainingMigration(t *testing.T) {
	rt := NewRouter(RouterConfig{Shards: 2, Base: fastConfig(graph.Grid(3, 3))})
	rt.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	key := rt.ShardKeys(catalog(32))[0][0]
	if _, err := rt.Acquire(ctx, []string{key}, 20*time.Second, 0); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	gen0 := rt.RingInfo().Generation
	migrated := make(chan error, 1)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		migrated <- rt.MigrateKey(key, 1)
	}()
	for rt.RingInfo().Generation == gen0 {
		if ctx.Err() != nil {
			t.Fatal("migration fence never landed")
		}
		time.Sleep(time.Millisecond)
	}

	stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
	defer stopCancel()
	start := time.Now()
	rt.Stop(stopCtx)
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Stop took %v with a 1s context: it waited out the migration's drain", took)
	}
	if err := <-migrated; err == nil {
		t.Fatal("a migration cut short by Stop reported success")
	}
	if got := rt.Metrics().RebalancesAborted.Load(); got != 1 {
		t.Fatalf("RebalancesAborted = %d, want 1", got)
	}
	if _, err := rt.core.Parts([]string{key}, time.Now()); err != nil {
		t.Fatal("the aborted migration left its key fenced")
	}
}

// TestRouterSpanAbortOnMigrationMidPrepare is the seed-pinned
// regression for the span/migration interaction: a span resolves its
// parts, blocks behind a holder on its first shard, and while it waits
// a migration moves its OTHER key to a new home (that key is idle, so
// the drain is instant and the commit deterministic). When the span
// finally collects both sub-leases it straddles two placement epochs —
// its shard-1 sub-lease is on a shard that no longer owns the key —
// so the pre-commit placement fence must abort it with ErrSpanAborted
// and roll back every sub-lease: zero residual leases on any shard.
func TestRouterSpanAbortOnMigrationMidPrepare(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	pair := spanningPair(t, rt) // pair[0] on shard 0, pair[1] on shard 1 (seed 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The holder pins the span's FIRST part (shard 0), so the span
	// blocks before it ever touches shard 1 — leaving pair[1] idle and
	// migratable with a deterministic, instant drain.
	held, err := rt.Acquire(ctx, []string{pair[0]}, 30*time.Second, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	spanErr := make(chan error, 1)
	go func() {
		_, err := rt.Acquire(ctx, pair, 10*time.Second, 0)
		spanErr <- err
	}()
	// SpanAcquires ticks after partsFor resolved placement under gen0
	// and before the first sub-acquire blocks — once it reads 1, the
	// span is committed to its pre-migration decomposition.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().SpanAcquires.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("span never started")
		}
		time.Sleep(time.Millisecond)
	}

	if err := rt.MigrateKey(pair[1], 0); err != nil {
		t.Fatalf("MigrateKey(%q, 0): %v", pair[1], err)
	}
	if err := rt.Release(held.SessionID); err != nil {
		t.Fatalf("holder release: %v", err)
	}

	err = <-spanErr
	if !errors.Is(err, ErrSpanAborted) {
		t.Fatalf("span racing migration: err = %v, want ErrSpanAborted", err)
	}
	if !strings.Contains(err.Error(), "placement moved mid-span") {
		t.Fatalf("abort error %q does not name the migration fence", err)
	}
	m := rt.Metrics()
	if got := m.SpanRollbacks.Load(); got != 1 {
		t.Fatalf("SpanRollbacks = %d, want 1", got)
	}
	if got := m.SpanCommits.Load(); got != 0 {
		t.Fatalf("SpanCommits = %d, want 0", got)
	}
	// The acceptance bar: no residual sub-lease survives the abort.
	for s := 0; s < 2; s++ {
		if got := rt.Shard(s).ActiveLeases(); got != 0 {
			t.Fatalf("shard %d active leases after span abort = %d, want 0", s, got)
		}
	}
}

// TestRebalanceLoopMovesHotKey drives the whole feedback loop live: a
// skewed workload (one hot key plus filler on shard 0, nothing on
// shard 1) must make the controller sense the imbalance, fence and
// migrate the hot key to shard 1, and publish the move through
// /v1/status, /v1/ring, and the Prometheus counters.
func TestRebalanceLoopMovesHotKey(t *testing.T) {
	rt := NewRouter(RouterConfig{
		Shards: 2,
		Base:   fastConfig(graph.Grid(2, 2)),
		Rebalance: &control.Config{
			Interval:   20 * time.Millisecond,
			HalfLife:   10 * time.Second, // keep the drive's counts alive while polling
			Cooldown:   time.Hour,        // one decisive move, no churn
			Hysteresis: 1.2,
			MinLoad:    16,
		},
	})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byShard := rt.ShardKeys(catalog(64))
	if len(byShard[0]) < 6 {
		t.Fatalf("need 6 shard-0 keys, have %d", len(byShard[0]))
	}
	hot, filler := byShard[0][0], byShard[0][1:6]

	// 60 grants on the hot key + 50 spread over filler: shard 0 carries
	// everything, and the hot key (60) is well under the load gap
	// (~110), so Decide must move it rather than hold still.
	drive := func(key string) {
		g, err := rt.Acquire(ctx, []string{key}, time.Second, 0)
		if errors.Is(err, ErrWrongShard) {
			return // fenced mid-drive by the very migration we want
		}
		if err != nil {
			t.Fatalf("drive acquire %q: %v", key, err)
		}
		_ = rt.Release(g.SessionID)
	}
	for i := 0; i < 60; i++ {
		drive(hot)
	}
	for i := 0; i < 50; i++ {
		drive(filler[i%len(filler)])
	}

	deadline := time.Now().Add(10 * time.Second)
	for rt.Metrics().Rebalances.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never migrated; snapshot: %+v", rt.Controller().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, ok := rt.RingInfo().Overrides[hot]; !ok || got != 1 {
		t.Fatalf("override table = %v, want %q -> 1", rt.RingInfo().Overrides, hot)
	}

	// The move is visible on every operator surface.
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Control == nil {
		t.Fatal("status report has no control section with rebalancing on")
	}
	if st.Control.OverrideCount != 1 {
		t.Fatalf("status OverrideCount = %d, want 1", st.Control.OverrideCount)
	}
	if st.Control.OverrideGen == 0 {
		t.Fatal("status OverrideGen = 0, want the committed generation")
	}
	if len(st.Control.Shards) != 2 {
		t.Fatalf("status control shards = %d, want 2", len(st.Control.Shards))
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"dinerd_rebalance_total 1",
		"dinerd_rebalance_aborted_total 0",
		"dinerd_hotkey_fraction",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestAdminMigrateEndpoint: the manual migration switch runs the same
// protocol over HTTP — 200 with the post-commit RingInfo on success,
// 409 on a rejected move, 400 on a malformed request.
func TestAdminMigrateEndpoint(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	byShard := rt.ShardKeys(catalog(32))
	key := byShard[0][0]

	post := func(path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+path, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	resp, err := post("/v1/admin/migrate?key=" + key + "&to=1")
	if err != nil {
		t.Fatalf("POST migrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status = %d, want 200", resp.StatusCode)
	}
	if got := rt.RingInfo().Overrides[key]; got != 1 {
		t.Fatalf("override after HTTP migrate = %d, want 1", got)
	}
	// Re-migrating to the same home is a conflict, not a crash.
	resp, err = post("/v1/admin/migrate?key=" + key + "&to=1")
	if err != nil {
		t.Fatalf("POST duplicate migrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate migrate status = %d, want 409", resp.StatusCode)
	}
	resp, err = post("/v1/admin/migrate?key=&to=1")
	if err != nil {
		t.Fatalf("POST bad migrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-key migrate status = %d, want 400", resp.StatusCode)
	}
	// Request defects the router detects — a destination shard that
	// cannot exist, or one outside the ring — are 400s too, not 409s.
	resp, err = post("/v1/admin/migrate?key=" + key + "&to=7")
	if err != nil {
		t.Fatalf("POST out-of-range migrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range migrate status = %d, want 400", resp.StatusCode)
	}
	if err := rt.RingLeave(1); err != nil {
		t.Fatalf("RingLeave(1): %v", err)
	}
	resp, err = post("/v1/admin/migrate?key=" + byShard[0][1] + "&to=1")
	if err != nil {
		t.Fatalf("POST departed-shard migrate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("departed-shard migrate status = %d, want 400", resp.StatusCode)
	}
}
