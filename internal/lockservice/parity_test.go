package lockservice

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
	"mcdp/internal/wire"
)

// surface is what the parity script needs of a lock service; the
// implementations below are a bare Server's methods and a one-shard
// Router reached over HTTP and over wire. Errors are reduced to their
// status code so the three are comparable.
type surface struct {
	acquire func(ctx context.Context, res []string, ttl time.Duration) (session string, node int, code int)
	renew   func(ctx context.Context, session string) int
	release func(ctx context.Context, session string) int
	crash   func(ctx context.Context, node int) error
	restart func(ctx context.Context, node int) (fenced int, err error)
	shard   *Server // the one arbiter underneath: status totals and counters
}

func codeOf(err error) int {
	var apiErr *APIError
	var wireErr *wire.Error
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &apiErr):
		return apiErr.StatusCode
	case errors.As(err, &wireErr):
		return int(wireErr.Code)
	}
	return statusFor(err)
}

func serverSurface(t *testing.T, cfg Config) surface {
	s := startServer(t, cfg)
	return surface{
		acquire: func(ctx context.Context, res []string, ttl time.Duration) (string, int, int) {
			g, err := s.Acquire(ctx, res, ttl)
			if err != nil {
				return "", 0, codeOf(err)
			}
			return g.SessionID, int(g.Node), http.StatusOK
		},
		renew: func(_ context.Context, id string) int {
			_, err := s.Renew(id, 0)
			return codeOf(err)
		},
		release: func(_ context.Context, id string) int { return codeOf(s.Release(id)) },
		crash:   func(_ context.Context, node int) error { return s.InjectCrash(graph.ProcID(node), 0) },
		restart: func(_ context.Context, node int) (int, error) {
			return s.RestartNode(graph.ProcID(node), msgpass.RestartClean)
		},
		shard: s,
	}
}

// routerSurface fronts a one-shard Router with both facades; overWire
// picks which one carries acquire/renew/release (admin is HTTP-only).
func routerSurface(t *testing.T, cfg Config, overWire bool) surface {
	rt := startRouter(t, 1, cfg)
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	hc := NewClient(hs.URL)
	hc.MaxAttempts = 1
	sf := surface{
		acquire: func(ctx context.Context, res []string, ttl time.Duration) (string, int, int) {
			g, err := hc.Acquire(ctx, res, 0, ttl)
			if err != nil {
				return "", 0, codeOf(err)
			}
			return g.SessionID, g.Node, http.StatusOK
		},
		renew: func(ctx context.Context, id string) int {
			_, err := hc.Renew(ctx, id, 0)
			return codeOf(err)
		},
		release: func(ctx context.Context, id string) int { return codeOf(hc.Release(ctx, id)) },
		crash:   func(ctx context.Context, node int) error { return hc.Crash(ctx, node, 0) },
		restart: func(ctx context.Context, node int) (int, error) {
			resp, err := hc.Restart(ctx, node, false)
			if err != nil {
				return 0, err
			}
			return resp.Fenced, nil
		},
		shard: rt.Shard(0),
	}
	if overWire {
		wc := wire.NewClient(startWireListener(t, rt.WireBackend()))
		wc.MaxAttempts = 1
		t.Cleanup(wc.Close)
		sf.acquire = func(ctx context.Context, res []string, ttl time.Duration) (string, int, int) {
			g, err := wc.Acquire(ctx, res, 0, ttl)
			if err != nil {
				return "", 0, codeOf(err)
			}
			return g.SessionID, g.Node, http.StatusOK
		}
		sf.renew = func(ctx context.Context, id string) int {
			_, err := wc.Renew(ctx, id, 0)
			return codeOf(err)
		}
		sf.release = func(ctx context.Context, id string) int { return codeOf(wc.Release(ctx, id)) }
	}
	return sf
}

// parityOutcome is everything the script observes on one surface.
type parityOutcome struct {
	Steps    []string // "<step>: <session> @<node> -> <code>"
	Fenced   int
	Workers  int
	Locks    int
	Grants   int64
	Leases   int
	Queue    int
	Counters map[string]int64
}

// runParityScript drives acquire / renew / release / expiry / crash /
// restart through sf and records what came back.
func runParityScript(t *testing.T, sf surface) parityOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out parityOutcome
	step := func(name, session string, node, code int) {
		out.Steps = append(out.Steps, fmt.Sprintf("%s: %s @%d -> %d", name, session, node, code))
	}

	// Node 0 is the only home of this pair, so every grant's session ID
	// (counter and home) is determined.
	res := []string{"edge:0-1", "edge:0-2"}
	a, node, code := sf.acquire(ctx, res, 0)
	step("acquire", a, node, code)
	step("renew", a, node, sf.renew(ctx, a))
	step("release", a, node, sf.release(ctx, a))
	step("double release", a, node, sf.release(ctx, a))
	step("unmappable", "", 0, func() int { _, _, c := sf.acquire(ctx, []string{"edge:0-1", "edge:2-3"}, 0); return c }())

	// Expiry: a lease nobody releases is reclaimed by the janitor.
	b, node, code := sf.acquire(ctx, res, 150*time.Millisecond)
	step("acquire short ttl", b, node, code)
	waitCond(t, 5*time.Second, "lease expiry", func() bool { return sf.shard.ActiveLeases() == 0 })
	step("renew expired", b, node, sf.renew(ctx, b))

	// Crash and restart the home under a live lease: the restart fences it.
	c, node, code := sf.acquire(ctx, res, 0)
	step("acquire before crash", c, node, code)
	if err := sf.crash(ctx, 0); err != nil {
		t.Fatalf("crash: %v", err)
	}
	waitCond(t, 5*time.Second, "node 0 dead", func() bool { return sf.shard.Network().Snapshot(0).Dead })
	fenced, err := sf.restart(ctx, 0)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	out.Fenced = fenced
	waitCond(t, 5*time.Second, "node 0 revived", func() bool { return !sf.shard.Network().Snapshot(0).Dead })
	step("release fenced", c, node, sf.release(ctx, c))
	d, node, code := sf.acquire(ctx, res, 0)
	step("acquire after restart", d, node, code)
	step("release after restart", d, node, sf.release(ctx, d))

	rep := sf.shard.Status()
	out.Workers, out.Locks, out.Grants = rep.Workers, rep.Locks, rep.Grants
	out.Leases, out.Queue = rep.ActiveLeases, rep.QueueDepth
	m := sf.shard.Metrics()
	out.Counters = map[string]int64{
		"acquire_requests": m.AcquireRequests.Load(), "grants": m.Grants.Load(),
		"releases": m.Releases.Load(), "renewals": m.Renewals.Load(),
		"expirations": m.Expirations.Load(), "unmappable": m.RejectedUnmappable.Load(),
		"crashes": m.CrashesInjected.Load(), "restarts": m.NodeRestarts.Load(),
		"fenced": m.LeasesFenced.Load(),
	}
	return out
}

// TestOneShardRouterIsAServer is the reason the Server lost its own
// front end: the same script through a bare Server's methods and
// through a one-shard Router's HTTP and wire facades yields the same
// grants (session IDs included), status totals and counter deltas.
func TestOneShardRouterIsAServer(t *testing.T) {
	cfg := fastConfig(graph.Grid(2, 2))
	want := runParityScript(t, serverSurface(t, cfg))
	if want.Fenced != 1 || want.Counters["expirations"] != 1 || want.Grants != 4 {
		t.Fatalf("script did not exercise what it claims on the bare Server: %+v", want)
	}
	for name, overWire := range map[string]bool{"http": false, "wire": true} {
		t.Run(name, func(t *testing.T) {
			if got := runParityScript(t, routerSurface(t, cfg, overWire)); !reflect.DeepEqual(got, want) {
				t.Fatalf("one-shard Router over %s diverges from the Server:\n got %+v\nwant %+v", name, got, want)
			}
		})
	}
}

// TestServiceErrorHints pins the one place retry hints are applied:
// whichever of acquire, release or renew failed, a 429 carries
// Retry-After, a 409 carries the live ring generation in the body, and
// a leaderless 503 carries the shard's fractional-second blackout.
func TestServiceErrorHints(t *testing.T) {
	rt := NewRouter(RouterConfig{Base: fastConfig(graph.Grid(2, 2))})
	cases := []struct {
		name       string
		err        error
		code       int
		retryAfter string
		ringGen    uint64
	}{
		{"backpressure", ErrQueueFull, http.StatusTooManyRequests, "1", 0},
		{"stale ring", fmt.Errorf("%w: client generation 1", ErrWrongShard), http.StatusConflict, "", rt.generation()},
		{"span aborted", ErrSpanAborted, http.StatusConflict, "", rt.generation()},
		{"leaderless", &RetryAfterError{After: 1500 * time.Millisecond, Err: ErrLeaderless}, http.StatusServiceUnavailable, "1.500", 0},
		{"unknown session", ErrNotFound, http.StatusNotFound, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			rt.writeServiceErr(rec, tc.err)
			if rec.Code != tc.code {
				t.Fatalf("status = %d, want %d", rec.Code, tc.code)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			var body ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.RingGen != tc.ringGen || body.Error == "" {
				t.Fatalf("body = %+v, want ring_gen %d and a message", body, tc.ringGen)
			}
		})
	}
}
