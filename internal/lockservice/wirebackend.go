package lockservice

import (
	"context"
	"time"

	"mcdp/internal/wire"
)

// wireErr maps a service error onto the wire error space. The codes
// are the same HTTP status numbers statusFor assigns, so a rejection
// classifies identically no matter which transport carried it; 409
// rejections additionally carry the live ring generation so wire
// clients refresh placement without an extra round trip.
func wireErr(err error, ringGen uint64) *wire.Error {
	code := uint16(statusFor(err))
	e := &wire.Error{Code: code, Text: err.Error()}
	if code == 409 {
		e.RingGen = ringGen
	}
	return e
}

// acquireCtx carries the request's wait budget — the wire's timeout_ms —
// to the shard as a deadline, the same budget the HTTP handlers derive
// for timeout_ms, but without arming a timer: Server.await reads the
// deadline and enforces it with the one timer it arms, and only a
// session that is not granted at hand gets that far. An earlier deadline
// already on ctx wins.
func acquireCtx(ctx context.Context, req wire.AcquireReq) context.Context {
	if req.Timeout <= 0 {
		return ctx
	}
	dl := time.Now().Add(req.Timeout)
	if cur, ok := ctx.Deadline(); ok && !dl.Before(cur) {
		return ctx
	}
	return deadlineCtx{ctx, dl}
}

// deadlineCtx reports a deadline it never enforces: it never cancels
// itself, and its Done and Err are its parent's. Whoever reads Deadline
// must enforce it, as Server.await does. Nothing may derive a timeout
// or deadline context from it: the context package trusts a parent
// whose deadline is earlier to cancel on its own, so the derived
// context would never expire.
type deadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// routerBackend adapts a sharded Router onto wire.Backend.
type routerBackend struct{ r *Router }

// WireBackend adapts the router for a wire listener: shard routing,
// ring-generation assertions, and session-prefix release routing all
// behave exactly as they do under the HTTP facade.
func (r *Router) WireBackend() wire.Backend { return routerBackend{r} }

func (b routerBackend) Acquire(ctx context.Context, req wire.AcquireReq) (wire.GrantInfo, error) {
	g, err := b.r.Acquire(acquireCtx(ctx, req), req.Resources, req.TTL, req.RingGen)
	if err != nil {
		return wire.GrantInfo{}, wireErr(err, b.r.generation())
	}
	return wire.GrantInfo{Session: g.SessionID, Node: int(g.Node), Wait: g.Wait}, nil
}

func (b routerBackend) Release(ctx context.Context, session string) error {
	if err := b.r.Release(session); err != nil {
		return wireErr(err, b.r.generation())
	}
	return nil
}

func (b routerBackend) Renew(ctx context.Context, session string, ttl time.Duration) (time.Duration, error) {
	granted, err := b.r.Renew(session, ttl)
	if err != nil {
		return 0, wireErr(err, b.r.generation())
	}
	return granted, nil
}

func (b routerBackend) RingGen() uint64 { return b.r.generation() }

// WaitBudget reports shard 0's default acquire budget: every shard is
// built from the router's one Base config, so the budget is uniform.
func (b routerBackend) WaitBudget() time.Duration {
	// Every shard is built from the one Base config, so any primary's
	// post-default budget speaks for all (Base itself may hold zeros).
	return b.r.sets[0].Primary().cfg.DefaultTimeout
}
