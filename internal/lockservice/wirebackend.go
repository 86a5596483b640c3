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

// acquireCtx applies the request's wait budget as a context deadline —
// the same translation the HTTP handlers perform for timeout_ms.
func acquireCtx(ctx context.Context, req wire.AcquireReq) (context.Context, context.CancelFunc) {
	if req.Timeout > 0 {
		return context.WithTimeout(ctx, req.Timeout)
	}
	return ctx, func() {}
}

// routerBackend adapts a sharded Router onto wire.Backend.
type routerBackend struct{ r *Router }

// WireBackend adapts the router for a wire listener: shard routing,
// ring-generation assertions, and session-prefix release routing all
// behave exactly as they do under the HTTP facade.
func (r *Router) WireBackend() wire.Backend { return routerBackend{r} }

func (b routerBackend) Acquire(ctx context.Context, req wire.AcquireReq) (wire.GrantInfo, error) {
	ctx, cancel := acquireCtx(ctx, req)
	defer cancel()
	g, err := b.r.Acquire(ctx, req.Resources, req.TTL, req.RingGen)
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
