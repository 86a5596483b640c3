package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// faultEvery makes the same fault decision for every response frame.
type faultEvery msgpass.FaultDecision

func (f faultEvery) Decide(graph.ProcID, graph.ProcID, int) msgpass.FaultDecision {
	return msgpass.FaultDecision(f)
}

// waitersLeft counts the waiters still registered on the client's
// pooled connections.
func waitersLeft(cl *Client) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, slot := range cl.pool {
		slot.mu.Lock()
		if slot.cc != nil {
			slot.cc.mu.Lock()
			n += len(slot.cc.waiters)
			slot.cc.mu.Unlock()
		}
		slot.mu.Unlock()
	}
	return n
}

// TestDuplicatedResponsesNeverCrossCalls: the server sends every
// response frame three times, and each Renew asks for a TTL no other
// call asks for, which the fake echoes back. A duplicate that reached a
// later call through a reused waiter would hand it another call's TTL.
func TestDuplicatedResponsesNeverCrossCalls(t *testing.T) {
	be := newFakeBackend()
	srv, addr := startServer(t, ServerConfig{Backend: be, Faults: faultEvery{Duplicates: 2}})
	cl := NewClient(addr)
	cl.Conns = 2
	defer cl.Close()
	ctx := context.Background()
	g, err := cl.Acquire(ctx, []string{"r"}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	renew := func(ttl time.Duration) error {
		got, err := cl.Renew(ctx, g.SessionID, ttl)
		if err != nil {
			return fmt.Errorf("renew %v: %w", ttl, err)
		}
		if got != ttl {
			return fmt.Errorf("renew asked for %v and was answered %v: a response crossed calls", ttl, got)
		}
		return nil
	}

	const sequential = 1000
	for i := 0; i < sequential; i++ {
		if err := renew(time.Duration(10_000+i) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	const callers, each = 64, 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := renew(time.Duration(20_000+c*each+i) * time.Millisecond); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if dup := srv.Stats().FaultsDuplicate.Load(); dup < sequential {
		t.Fatalf("server duplicated %d frames, want >= %d; the test proves nothing", dup, sequential)
	}
	if n := waitersLeft(cl); n != 0 {
		t.Fatalf("%d waiters still registered after every call returned", n)
	}
}

// parkedBackend holds every acquire until its connection goes away.
type parkedBackend struct {
	*fakeBackend
	entered chan struct{}
}

func (b parkedBackend) Acquire(ctx context.Context, req AcquireReq) (GrantInfo, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	return GrantInfo{}, &Error{Code: 503, Text: "connection gone"}
}

// TestCloseFailsInFlightCalls: Close hands every call still waiting for
// its response an ErrTransport at once. No guard deadline is near: the
// calls would otherwise wait out the server's budget plus a minute.
func TestCloseFailsInFlightCalls(t *testing.T) {
	const calls = 16
	be := parkedBackend{newFakeBackend(), make(chan struct{}, calls)}
	_, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	cl.Conns = 2
	cl.MaxAttempts = 1 // a retry would dial afresh and park again
	cl.OpTimeout = time.Minute
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			_, err := cl.Acquire(context.Background(), []string{fmt.Sprintf("r%d", i)}, 0, 0)
			errs <- err
		}(i)
	}
	for i := 0; i < calls; i++ {
		select {
		case <-be.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d acquires reached the backend", i, calls)
		}
	}
	closed := time.Now()
	cl.Close()
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("in-flight call failed with %v, want ErrTransport", err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d of %d in-flight calls still waiting 1s after Close", calls-i, calls)
		}
	}
	t.Logf("%d in-flight calls failed %v after Close", calls, time.Since(closed))
}

// TestDroppedResponseFailsWithinBound: the server drops every response
// frame, so each call is failed by its connection's sweep — not before
// its budget plus OpTimeout, and within budget + 1.25 × OpTimeout (plus
// scheduling slack) of being sent.
func TestDroppedResponseFailsWithinBound(t *testing.T) {
	const (
		budget    = 100 * time.Millisecond
		opTimeout = 400 * time.Millisecond
		slack     = 50 * time.Millisecond
	)
	_, addr := startServer(t, ServerConfig{Backend: newFakeBackend(), Faults: faultEvery{Drop: true}})
	cl := NewClient(addr)
	cl.Conns = 1
	cl.MaxAttempts = 1
	cl.OpTimeout = opTimeout
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.getConn(ctx); err != nil { // hellos are exempt from faults
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := cl.Acquire(ctx, []string{fmt.Sprintf("r%d", i)}, budget, 0)
		took := time.Since(start)
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("call %d with a dropped response: %v, want ErrTransport", i, err)
		}
		if lo, hi := budget+opTimeout, budget+opTimeout*5/4+slack; took < lo || took > hi {
			t.Fatalf("call %d failed after %v, want within [%v, %v]", i, took, lo, hi)
		}
	}
}

// TestPingRoundTripAllocs is the allocation budget of one Ping round
// trip over loopback, both ends counted: each side's frame read
// allocates the frame's bytes and its decoded entries, and nothing else
// does — no waiter channel, no timer, no group slice per write, no
// per-entry copy on the server's reader. The race detector makes
// sync.Pool drop about one put in four, which costs a fresh waiter and
// its channel on some calls, so the budget is only checked without it.
func TestPingRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	_, addr := startServer(t, ServerConfig{Backend: newFakeBackend()})
	cl := NewClient(addr)
	cl.Conns = 1
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	const budget = 4
	allocs := testing.AllocsPerRun(500, func() {
		if err := cl.Ping(ctx); err != nil {
			t.Fatalf("ping: %v", err)
		}
	})
	if allocs > budget {
		t.Fatalf("one Ping round trip: %.0f allocations, budget %d", allocs, budget)
	}
	t.Logf("one Ping round trip: %.0f allocations", allocs)
}

// TestTinyOpTimeoutDoesNotPanic: an OpTimeout under four nanoseconds
// would make the connection's sweep interval zero, which time.NewTicker
// rejects with a panic on the sweep goroutine; the interval has a floor.
func TestTinyOpTimeoutDoesNotPanic(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Backend: newFakeBackend()})
	cl := NewClient(addr)
	cl.OpTimeout = time.Nanosecond
	defer cl.Close()
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
}
