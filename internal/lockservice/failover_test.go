package lockservice

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/wire"
)

// logCapture collects supervisor log lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) all() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

func (lc *logCapture) contains(substr string) bool {
	for _, l := range lc.all() {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// fastFailover returns failover knobs tuned for tests: detection in
// ~10ms, promotions at most every 300ms.
func fastFailover(lc *logCapture) FailoverConfig {
	return FailoverConfig{
		CheckEvery:     5 * time.Millisecond,
		Misses:         2,
		Cooloff:        300 * time.Millisecond,
		HeartbeatEvery: 10 * time.Millisecond,
		Logf:           lc.logf,
	}
}

func startReplicatedRouter(t *testing.T, shards, replicas int, fo FailoverConfig) *Router {
	t.Helper()
	rt := NewRouter(RouterConfig{
		Shards:   shards,
		Replicas: replicas,
		Base:     fastConfig(graph.Grid(2, 3)),
		Failover: fo,
	})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	return rt
}

// TestFailoverEndToEnd is the tentpole e2e: a replicated shard loses
// its primary, the supervisor promotes the standby under a bumped ring
// generation, the replicated lease is adopted under its original ID,
// and a client rides through the blackout on its ordinary 503/409
// retry loop. Run under -race in CI (the failover-smoke step).
func TestFailoverEndToEnd(t *testing.T) {
	lc := &logCapture{}
	rt := startReplicatedRouter(t, 1, 1, fastFailover(lc))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c := NewClient(hs.URL)
	c.Backoff = 2 * time.Millisecond
	if _, err := c.Ring(ctx); err != nil {
		t.Fatalf("Ring: %v", err)
	}
	genBefore := c.RingGen()

	held, err := c.Acquire(ctx, []string{"edge:0-1"}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("acquire before failover: %v", err)
	}
	oldPrimary := rt.Shard(0)

	if err := rt.Failover(0, 10*time.Second); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	newPrimary := rt.Shard(0)
	if newPrimary == oldPrimary {
		t.Fatal("failover did not swap the primary")
	}
	info := rt.ShardInfo(0)
	if info.Incarnation != 2 || info.Standbys != 0 || info.Halted {
		t.Fatalf("post-failover shard info: %+v", info)
	}
	if got := rt.RingInfo().Generation; got != genBefore+1 {
		t.Fatalf("ring generation after failover = %d, want %d", got, genBefore+1)
	}
	// The replicated lease was adopted under its original session ID.
	if got := newPrimary.ActiveLeases(); got != 1 {
		t.Fatalf("promoted primary holds %d leases, want 1 adopted", got)
	}
	if got := newPrimary.Metrics().LeasesAdopted.Load(); got != 1 {
		t.Fatalf("LeasesAdopted = %d, want 1", got)
	}
	// The adopted lease excludes rivals exactly like the original grant.
	rivalCtx, rivalCancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if _, err := newPrimary.Acquire(rivalCtx, []string{"edge:0-1"}, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("rival acquire of adopted lease: err = %v, want ErrTimeout", err)
	}
	rivalCancel()

	// The client's cached generation is stale: its ordinary retry loop
	// (409 + live generation) must recover without operator help.
	g2, err := c.Acquire(ctx, []string{"edge:2-3"}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after failover: %v", err)
	}
	if c.RingGen() != genBefore+1 {
		t.Fatalf("client generation after retry = %d, want %d", c.RingGen(), genBefore+1)
	}
	// The pre-failover session stays releasable through the new primary.
	if err := c.Release(ctx, held.SessionID); err != nil {
		t.Fatalf("release of adopted lease: %v", err)
	}
	if err := c.Release(ctx, g2.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}

	// Promotion decisions are logged exactly once, with reason and lag.
	var promoted int
	for _, l := range lc.all() {
		if strings.Contains(l, "promoted standby") {
			promoted++
			if !strings.Contains(l, "reason=") || !strings.Contains(l, "lag=") {
				t.Fatalf("promotion log lacks reason/lag: %q", l)
			}
		}
	}
	if promoted != 1 {
		t.Fatalf("%d promotion log lines, want 1: %v", promoted, lc.all())
	}

	rep := rt.Status()
	sub := rep.Reports[0]
	if sub.Role != "primary" || sub.ShardIncarnation != 2 || sub.Standbys != 0 {
		t.Fatalf("status role=%q incarnation=%d standbys=%d", sub.Role, sub.ShardIncarnation, sub.Standbys)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"dinerd_failover_total 1",
		`dinerd_shard_incarnation{shard="0"} 2`,
		`dinerd_shard_role{shard="0"} 1`,
		"dinerd_promotion_seconds_count 1",
		"dinerd_leases_adopted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if d := rt.Metrics().PromotionDurations(); len(d) != 1 || d[0] <= 0 {
		t.Fatalf("PromotionDurations = %v, want one positive sample", d)
	}
}

// TestShardLeaderlessRetryAfter: with the only standby dead, a killed
// primary leaves the shard dark — requests draw 503 with a concrete
// Retry-After hint, the failed promotion is logged, and the halted
// standby is never promoted (incarnation stays put).
func TestShardLeaderlessRetryAfter(t *testing.T) {
	lc := &logCapture{}
	rt := startReplicatedRouter(t, 1, 1, fastFailover(lc))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	held, err := rt.Acquire(ctx, []string{"edge:2-3"}, 0, 0)
	if err != nil {
		t.Fatalf("acquire before the shard goes dark: %v", err)
	}
	set := rt.sets[0]
	if !set.killStandby(0) {
		t.Fatal("killStandby(0) found no standby")
	}
	set.killPrimary()

	waitCond(t, 5*time.Second, "failed promotion to be logged", func() bool {
		return lc.contains("promotion failed")
	})
	if got := set.incarnation(); got != 1 {
		t.Fatalf("incarnation = %d after failed promotion, want 1 (halted standby never promoted)", got)
	}

	// Every lease operation on the dark shard answers the same way: the
	// live lease can be neither renewed nor released until a primary
	// serves again, and the client is told how long to wait.
	c := NewClient(hs.URL)
	c.MaxAttempts = 1
	for op, call := range map[string]func() error{
		"acquire": func() error { _, err := c.Acquire(ctx, []string{"edge:0-1"}, time.Second, 0); return err },
		"renew":   func() error { _, err := c.Renew(ctx, held.SessionID, 0); return err },
		"release": func() error { return c.Release(ctx, held.SessionID) },
	} {
		var apiErr *APIError
		if err := call(); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on dark shard: err = %v, want 503", op, err)
		}
		if apiErr.RetryAfter <= 0 {
			t.Fatalf("%s: 503 carried no Retry-After hint: %+v", op, apiErr)
		}
	}
	if rt.Metrics().LeaderlessRejections.Load() < 1 {
		t.Fatal("LeaderlessRejections not bumped")
	}
	if got := rt.Metrics().Failovers.Load(); got != 0 {
		t.Fatalf("Failovers = %d on a dark shard, want 0", got)
	}
}

// TestGenerationFencingParity stages the split-brain race on both
// facades: an acquire blocks on the primary, a promotion deposes that
// primary mid-wait, and when the blocked request is finally granted by
// the deposed server the fence surrenders the lease and answers 409 —
// identically over HTTP and the wire transport, both carrying the live
// ring generation.
func TestGenerationFencingParity(t *testing.T) {
	lc := &logCapture{}
	// Slow checks: promotions in this test are driven directly, and the
	// primary is healthy throughout, so the supervisor stays idle.
	fo := fastFailover(lc)
	rt := startReplicatedRouter(t, 1, 2, fo)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	wireAddr := startWireListener(t, rt.WireBackend())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	set := rt.sets[0]
	held, err := rt.Acquire(ctx, []string{"edge:0-1"}, 0, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	blockedDepth := func(s *Server) func() bool {
		return func() bool {
			return s.Arbiter().QueueDepth(0)+s.Arbiter().QueueDepth(1) >= 1
		}
	}

	// Round 1: HTTP. The request parks behind the holder on the current
	// primary; a promotion deposes that primary while it waits.
	p1 := rt.Shard(0)
	httpRes := make(chan error, 1)
	go func() {
		c := NewClient(hs.URL)
		c.MaxAttempts = 1
		_, err := c.Acquire(ctx, []string{"edge:0-1"}, 10*time.Second, 0)
		httpRes <- err
	}()
	waitCond(t, 5*time.Second, "HTTP acquire to queue", blockedDepth(p1))
	if _, err := set.promote(); err != nil {
		t.Fatalf("promote #1: %v", err)
	}
	// Unblock the queued acquire on the DEPOSED server: its grant must
	// be fenced, not delivered.
	if err := p1.Release(held.SessionID); err != nil {
		t.Fatalf("release on deposed primary: %v", err)
	}
	err = <-httpRes
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("HTTP fenced acquire: err = %v, want 409", err)
	}
	if !strings.Contains(apiErr.Message, "deposed") {
		t.Fatalf("HTTP 409 message %q does not name deposal", apiErr.Message)
	}
	if apiErr.RingGen == 0 {
		t.Fatal("HTTP 409 carried no ring generation")
	}
	// The fenced grant was surrendered on the deposed server.
	if got := p1.ActiveLeases(); got != 0 {
		t.Fatalf("deposed primary still holds %d leases", got)
	}

	// Round 2: wire. The promoted primary adopted the holder's lease, so
	// the same race restages against the next standby.
	p2 := rt.Shard(0)
	if got := p2.ActiveLeases(); got != 1 {
		t.Fatalf("promoted primary holds %d leases, want 1 adopted", got)
	}
	wireRes := make(chan error, 1)
	go func() {
		wc := wire.NewClient(wireAddr)
		wc.MaxAttempts = 1
		defer wc.Close()
		_, err := wc.Acquire(ctx, []string{"edge:0-1"}, 10*time.Second, 0)
		wireRes <- err
	}()
	waitCond(t, 5*time.Second, "wire acquire to queue", blockedDepth(p2))
	if _, err := set.promote(); err != nil {
		t.Fatalf("promote #2: %v", err)
	}
	if err := p2.Release(held.SessionID); err != nil {
		t.Fatalf("release on deposed primary #2: %v", err)
	}
	err = <-wireRes
	var wErr *wire.Error
	if !errors.As(err, &wErr) || wErr.Code != 409 {
		t.Fatalf("wire fenced acquire: err = %v, want code 409", err)
	}
	if !strings.Contains(wErr.Text, "deposed") {
		t.Fatalf("wire 409 text %q does not name deposal", wErr.Text)
	}
	if wErr.RingGen == 0 {
		t.Fatal("wire 409 carried no ring generation")
	}
	if got := p2.ActiveLeases(); got != 0 {
		t.Fatalf("deposed primary #2 still holds %d leases", got)
	}
	// The holder's lease survived two promotions; the current primary's
	// adopted copy still routes by its original session ID.
	if err := rt.Release(held.SessionID); err != nil {
		t.Fatalf("release of twice-adopted lease: %v", err)
	}
}

// TestClientRetryAfterHint pins the client's Retry-After handling: a
// 503 carrying a hint delays the retry by at least half the hint
// (jitter keeps the rest), overriding the much shorter exponential
// backoff, and the hint is capped by MaxBackoff.
func TestClientRetryAfterHint(t *testing.T) {
	c := &Client{Backoff: time.Millisecond, MaxBackoff: time.Second}
	c.jitter.Store(42)
	hinted := &APIError{StatusCode: 503, RetryAfter: 400 * time.Millisecond}
	for i := 0; i < 32; i++ {
		d := c.retryDelay(0, hinted)
		if d < 200*time.Millisecond || d > 400*time.Millisecond {
			t.Fatalf("hinted delay %v outside [200ms,400ms]", d)
		}
	}
	capped := &APIError{StatusCode: 503, RetryAfter: time.Minute}
	for i := 0; i < 32; i++ {
		if d := c.retryDelay(0, capped); d > time.Second {
			t.Fatalf("hinted delay %v exceeds MaxBackoff cap", d)
		}
	}
	// Without a hint the ordinary exponential backoff applies.
	if d := c.retryDelay(0, &APIError{StatusCode: 503}); d > time.Millisecond {
		t.Fatalf("unhinted delay %v, want <= base backoff", d)
	}

	// End to end: one 503 with a 200ms hint, then success. The client's
	// base backoff is 1ms, so an elapsed time >= 100ms proves the hint —
	// not the exponential schedule — governed the wait.
	var calls int32
	var mu sync.Mutex
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "0.200")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"released":true}`))
	}))
	defer hs.Close()
	hc := NewClient(hs.URL)
	hc.Backoff = time.Millisecond
	start := time.Now()
	if err := hc.Release(context.Background(), "k0:s00000000-1"); err != nil {
		t.Fatalf("release through hinted retry: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("retry fired after %v, want >= 100ms (hint ignored)", elapsed)
	}
}

// TestSupervisorCooloffHoldsFlappingShard: a shard whose promoted
// primary immediately dies again gets at most one promotion per
// cool-off window, and each promotion is logged with its reason and
// observed replication lag.
func TestSupervisorCooloffHoldsFlappingShard(t *testing.T) {
	lc := &logCapture{}
	fo := fastFailover(lc)
	fo.Cooloff = 600 * time.Millisecond
	rt := startReplicatedRouter(t, 1, 2, fo)

	set := rt.sets[0]
	set.killPrimary()
	waitCond(t, 5*time.Second, "first promotion", func() bool {
		return rt.Metrics().Failovers.Load() == 1
	})
	// Flap: the freshly promoted primary dies inside the cool-off
	// window. The supervisor must hold the second promotion down.
	set.killPrimary()
	time.Sleep(250 * time.Millisecond)
	if got := rt.Metrics().Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d inside cool-off window, want 1", got)
	}
	waitCond(t, 5*time.Second, "second promotion after cool-off", func() bool {
		return rt.Metrics().Failovers.Load() == 2
	})
	var promoted int
	for _, l := range lc.all() {
		if strings.Contains(l, "promoted standby") {
			promoted++
			if !strings.Contains(l, "reason=") || !strings.Contains(l, "lag=") {
				t.Fatalf("promotion log lacks reason/lag: %q", l)
			}
		}
	}
	if promoted != 2 {
		t.Fatalf("%d promotion log lines, want 2", promoted)
	}
	if got := rt.ShardInfo(0).Incarnation; got != 3 {
		t.Fatalf("incarnation = %d after two promotions, want 3", got)
	}
}

// TestFailoverAdminEndpoint drives the kill-primary switch over HTTP:
// POST /v1/admin/failover promotes and answers the new shard state;
// killing the last primary (no standby left) is refused with 409.
func TestFailoverAdminEndpoint(t *testing.T) {
	lc := &logCapture{}
	rt := startReplicatedRouter(t, 1, 1, fastFailover(lc))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/admin/failover?shard=0&timeout_ms=10000", "", nil)
	if err != nil {
		t.Fatalf("POST failover: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status = %d, want 200", resp.StatusCode)
	}
	if got := rt.ShardInfo(0).Incarnation; got != 2 {
		t.Fatalf("incarnation after admin failover = %d, want 2", got)
	}

	// No standby remains: a second kill must be refused, leaving the
	// shard serving.
	resp2, err := http.Post(hs.URL+"/v1/admin/failover?shard=0&timeout_ms=1000", "", nil)
	if err != nil {
		t.Fatalf("POST failover #2: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("failover with no standby: status = %d, want 409", resp2.StatusCode)
	}
	if rt.Shard(0).Halted() {
		t.Fatal("refused failover killed the primary anyway")
	}
}

// TestStandbyGapRuleOneSpelling feeds a standby the frames
// detsim's TestReplicaGapRuleOneSpelling feeds its model — a stream
// opening on a heartbeat that echoes sequence 0, then record 2 — and
// wants the same verdict from the same coord.Stream: record 1 was lost.
func TestStandbyGapRuleOneSpelling(t *testing.T) {
	connP, connS := net.Pipe()
	sb := newStandby(nil, func() uint64 { return 1 })
	sb.serve(connS)
	defer func() {
		connP.Close()
		connS.Close()
		sb.join()
	}()
	go func() { // drain acks so the reader's write never blocks
		buf := make([]byte, 512)
		for {
			if _, err := connP.Read(buf); err != nil {
				return
			}
		}
	}()
	frame := wire.AppendFrame(nil, wire.TypeReplApply, []wire.Msg{
		{Type: wire.TypeReplApply, Seq: 0, Inc: 1, Op: ReplOpHeartbeat},
		{Type: wire.TypeReplApply, Corr: 2, Seq: 2, Inc: 1, Op: ReplOpGrant, Session: "k0:s2", Resources: []string{"a"}, DeadlineUS: 1},
	})
	if _, err := connP.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitCond(t, 2*time.Second, "record 2 applied", func() bool {
		st := sb.state()
		return st.Applied() == 2
	})
	if st := sb.state(); !st.Gap() {
		t.Fatal("standby applied record 2 behind an opening heartbeat 0 without flagging the hole")
	}
}
