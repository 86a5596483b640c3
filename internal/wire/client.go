package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransport marks a connection-level failure (dial, framing, CRC,
// peer close); the operation's outcome is unknown and the client
// retries it on a fresh connection.
var ErrTransport = errors.New("wire: transport failure")

// Client speaks the framed binary protocol to one server address
// through a small pool of persistent connections. Many goroutines
// share one Client: each operation is multiplexed onto a pooled
// connection by correlation ID, and each connection's writer coalesces
// concurrently submitted operations into batched frames. Retries and
// backoff mirror the HTTP client: transport failures, backpressure
// (429), and stale ring generations (409) retry; logical rejections
// surface immediately as *Error.
type Client struct {
	// Addr is the server's TCP address, e.g. "127.0.0.1:7468".
	Addr string
	// Conns is the connection pool size (default 4).
	Conns int
	// MaxBatch caps entries coalesced into one frame (default 64).
	MaxBatch int
	// MaxAttempts bounds tries per call (default 4).
	MaxAttempts int
	// Backoff is the first retry delay (default 50ms), doubling per
	// attempt up to MaxBackoff (default 1s), jittered over the upper
	// half of the window.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// OpTimeout is the client-side slack allowed past the server-side
	// wait budget before a missing response is declared lost (default
	// 10s). A response lost in transit (dropped frame) is otherwise
	// indistinguishable from a slow server; the guard converts it into
	// a retryable transport fault. A call's guard deadline is its
	// effective budget — the caller's explicit timeout, or the server's
	// default budget advertised in the hello — plus this slack after
	// the request is queued, so a legitimately slow grant inside the
	// server's budget is never misread as a lost response. Each
	// connection sweeps its calls' deadlines every OpTimeout/4 (at most
	// once a millisecond), so a lost response fails between
	// budget + OpTimeout and budget + 1.25 × OpTimeout after the send.
	OpTimeout time.Duration

	// jitter is the backoff PRNG state, lazily seeded on first use.
	jitter atomic.Uint64

	// ringGen caches the last ring generation observed (server hello
	// or 409 rejection); non-zero values are asserted on every acquire.
	ringGen atomic.Uint64

	stats ClientStats

	mu   sync.Mutex  //lint:order rank wireclient 10
	pool []*connSlot // guarded by mu
	rr   atomic.Uint64
}

// connSlot is one pool position; its mutex serializes redials so a
// burst of callers hitting a dead slot produces one dial, not one per
// caller.
type connSlot struct {
	mu sync.Mutex  //lint:order rank wireclient 20
	cc *clientConn // guarded by mu
}

// ClientStats counts what the client's connections did — the raw
// material for loadgen's connection-reuse and batch-size report.
type ClientStats struct {
	// ConnsOpened counts TCP connections dialed (reuse = Ops /
	// ConnsOpened).
	ConnsOpened atomic.Int64
	// Ops counts operations submitted (acquire + release + renew +
	// ping).
	Ops atomic.Int64
	// Retries counts retry attempts after failures.
	Retries atomic.Int64
	// BatchedEntries / Writes give the outbound batching ratio:
	// entries coalesced per TCP write.
	BatchedEntries atomic.Int64
	Writes         atomic.Int64

	mu          sync.Mutex    //lint:order rank wireclient 40
	batchCounts map[int]int64 // write batch size -> occurrences; guarded by mu
}

// BatchSizes returns a copy of the batch-size distribution: how many
// TCP writes carried each entry count.
func (s *ClientStats) BatchSizes() map[int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int64, len(s.batchCounts))
	for k, v := range s.batchCounts {
		out[k] = v
	}
	return out
}

func (s *ClientStats) observeBatch(n int) {
	s.BatchedEntries.Add(int64(n))
	s.Writes.Add(1)
	s.mu.Lock()
	if s.batchCounts == nil {
		s.batchCounts = make(map[int]int64)
	}
	s.batchCounts[n]++
	s.mu.Unlock()
}

// NewClient returns a client for the wire server at addr.
func NewClient(addr string) *Client { return &Client{Addr: addr} }

// Stats exposes the client's traffic counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// RingGen returns the cached ring generation (0 before the first
// hello).
func (c *Client) RingGen() uint64 { return c.ringGen.Load() }

func (c *Client) conns() int {
	if c.Conns > 0 {
		return c.Conns
	}
	return 4
}

func (c *Client) maxBatch() int {
	if c.MaxBatch > 0 && c.MaxBatch <= MaxEntries {
		return c.MaxBatch
	}
	return 64
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *Client) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 5 * time.Second
}

func (c *Client) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return 10 * time.Second
}

// backoff mirrors the HTTP client: exponential with full jitter over
// the upper half of the window.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.Backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	d := base << uint(attempt)
	if d > maxB || d <= 0 {
		d = maxB
	}
	if c.jitter.Load() == 0 {
		c.jitter.CompareAndSwap(0, uint64(time.Now().UnixNano())|1)
	}
	x := c.jitter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	half := uint64(d / 2)
	return time.Duration(half + x%(half+1))
}

// Grant is a successful wire acquire.
type Grant struct {
	SessionID string
	Node      int
	Wait      time.Duration
}

// Acquire requests the resource set, blocking until grant, rejection,
// or ctx cancellation. timeout > 0 is forwarded as the server-side
// wait budget; ttl > 0 overrides the lease TTL.
//
//lint:lease acquire
func (c *Client) Acquire(ctx context.Context, resources []string, timeout, ttl time.Duration) (*Grant, error) {
	req := Msg{Type: TypeAcquire, Resources: resources}
	if timeout > 0 {
		req.TimeoutMS = uint32(timeout.Milliseconds())
	}
	if ttl > 0 {
		req.TTLMS = uint32(ttl.Milliseconds())
	}
	var grant *Grant
	err := c.call(ctx, func() (Msg, error) {
		req.RingGen = c.ringGen.Load()
		return req, nil
	}, timeout, func(m Msg) error {
		switch m.Type {
		case TypeGrant:
			grant = &Grant{SessionID: m.Session, Node: int(m.Node), Wait: time.Duration(m.WaitUS) * time.Microsecond}
			return nil
		default:
			return fmt.Errorf("%w: unexpected %s response to acquire", ErrTransport, typeName(m.Type))
		}
	})
	if err != nil {
		return nil, err
	}
	return grant, nil
}

// Release releases a granted session. A 404 on a retry after an
// indeterminate attempt (response lost in transit) reports success:
// the first attempt released the session, only its acknowledgment was
// lost.
//
//lint:lease release
func (c *Client) Release(ctx context.Context, sessionID string) error {
	req := Msg{Type: TypeRelease, Session: sessionID}
	err := c.call(ctx, func() (Msg, error) { return req, nil }, 0, func(m Msg) error {
		if m.Type != TypeReleased {
			return fmt.Errorf("%w: unexpected %s response to release", ErrTransport, typeName(m.Type))
		}
		return nil
	})
	var wireErr *Error
	if errors.As(err, &wireErr) && wireErr.Code == 404 && errors.Is(err, ErrTransport) {
		return nil
	}
	return err
}

// Renew extends a live lease's TTL and returns the granted lifetime.
//
//lint:lease renew
func (c *Client) Renew(ctx context.Context, sessionID string, ttl time.Duration) (time.Duration, error) {
	req := Msg{Type: TypeRenew, Session: sessionID}
	if ttl > 0 {
		req.TTLMS = uint32(ttl.Milliseconds())
	}
	var remaining time.Duration
	err := c.call(ctx, func() (Msg, error) { return req, nil }, 0, func(m Msg) error {
		if m.Type != TypeRenewed {
			return fmt.Errorf("%w: unexpected %s response to renew", ErrTransport, typeName(m.Type))
		}
		remaining = time.Duration(m.RemainingMS) * time.Millisecond
		return nil
	})
	return remaining, err
}

// Ping round-trips an empty frame (tests and health checks).
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, func() (Msg, error) { return Msg{Type: TypePing}, nil }, 0, func(m Msg) error {
		if m.Type != TypePong {
			return fmt.Errorf("%w: unexpected %s response to ping", ErrTransport, typeName(m.Type))
		}
		return nil
	})
}

// Sync dials (if needed) and pings, refreshing the cached ring
// generation from the connection hello. The wire analog of the HTTP
// client's Ring probe.
func (c *Client) Sync(ctx context.Context) error { return c.Ping(ctx) }

// Close drops every pooled connection.
func (c *Client) Close() {
	c.mu.Lock()
	pool := c.pool
	c.pool = nil
	c.mu.Unlock()
	for _, slot := range pool {
		slot.mu.Lock()
		if slot.cc != nil {
			slot.cc.close(fmt.Errorf("%w: client closed", ErrTransport))
		}
		slot.mu.Unlock()
	}
}

// call runs one operation with retry/backoff: build the request (ring
// generation re-read per attempt), dispatch it on a pooled connection,
// decode the response. timeout > 0 adds client-side slack over the
// server's wait budget so a lost response cannot hang the caller.
func (c *Client) call(ctx context.Context, build func() (Msg, error), timeout time.Duration, decode func(Msg) error) error {
	var last error
	// transportFault remembers an earlier indeterminate attempt; a
	// logical rejection on the retry is joined with it so callers can
	// recognize ambiguity (Release treats 404-after-fault as success).
	var transportFault error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(1)
			select {
			case <-time.After(c.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := build()
		if err != nil {
			return err
		}
		if err := req.Check(); err != nil {
			// Out-of-bounds input is the caller's bug: surface it here
			// rather than letting AppendFrame panic the shared writer.
			return err
		}
		m, err := c.roundTrip(ctx, req, timeout)
		if err == nil && m.Type == TypeError {
			err = &Error{Code: m.Code, Text: m.Text, RingGen: m.RingGen}
		}
		if err == nil {
			return decode(m)
		}
		last = err
		var wireErr *Error
		if errors.As(err, &wireErr) {
			if !wireErr.IsRetryable() {
				if transportFault != nil {
					return errors.Join(err, transportFault)
				}
				return err
			}
			if wireErr.Code == 409 && wireErr.RingGen != 0 {
				// Adopt the live generation so the retry routes correctly.
				c.ringGen.Store(wireErr.RingGen)
			}
		} else if errors.Is(err, ErrTransport) {
			transportFault = err
		}
		if ctx.Err() != nil {
			return last
		}
	}
	return last
}

// roundTrip sends one request entry on a pooled connection and waits
// for its correlated response. It arms no timer and waits on no
// connection-wide channel: the reply, or the failure that close or the
// lost-response sweep hands it instead, arrives on the call's own pooled
// waiter, and the caller's context is the only other channel it watches.
func (c *Client) roundTrip(ctx context.Context, req Msg, timeout time.Duration) (Msg, error) {
	cc, err := c.getConn(ctx)
	if err != nil {
		return Msg{}, err
	}
	c.stats.Ops.Add(1)
	req.Corr = cc.corr.Add(1)
	w := waiterPool.Get().(*waiter)
	w.deadline.Store(0)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		waiterPool.Put(w)
		return Msg{}, err
	}
	cc.waiters[req.Corr] = w
	cc.mu.Unlock()
	cc.inflight.Add(1)
	defer cc.inflight.Add(-1)

	select {
	case cc.sendq <- req:
	default:
		select {
		case cc.sendq <- req:
		case r := <-w.ch: // the connection closed before the writer took it
			waiterPool.Put(w)
			return r.m, r.err
		case <-ctx.Done():
			return Msg{}, cc.abandon(req.Corr, w, ctx.Err())
		}
	}

	// Lost-response guard: the server owns the wait budget (it rejects
	// with 408), so the sweep only fails a call whose response was lost in
	// transit — transport territory, retried on a fresh frame. The budget
	// is the caller's explicit timeout, falling back to the server's
	// default advertised in the hello, so an acquire sent with timeout=0
	// against a long server budget is never misclassified as a lost
	// response while it legitimately waits.
	budget := timeout
	if budget <= 0 {
		budget = cc.budget
	}
	w.deadline.Store(monotonic() + int64(budget+c.opTimeout()))
	var r reply
	select {
	case r = <-w.ch:
	case <-ctx.Done():
		return Msg{}, cc.abandon(req.Corr, w, ctx.Err())
	}
	waiterPool.Put(w)
	return r.m, r.err
}

// waiter is one round trip's slot on a connection: the channel its one
// reply arrives on, and when the sweep may declare the response lost.
// Every waiter taken out of a connection's map by someone other than its
// caller gets exactly one reply, sent under cc.mu as it is removed, so a
// duplicated response finds no waiter and is dropped; a waiter goes back
// to the pool only with its channel empty.
type waiter struct {
	ch chan reply // capacity 1
	// deadline is the monotonic instant (see monotonic) past which the
	// sweep fails the call; 0 until the request is queued for the writer.
	deadline atomic.Int64
}

// reply is what a waiter receives: a response entry, or the transport
// failure that ended the call.
type reply struct {
	m   Msg
	err error
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan reply, 1)} }}

// clockBase anchors monotonic.
var clockBase = time.Now()

// monotonic reads the monotonic clock as nanoseconds since clockBase.
func monotonic() int64 { return int64(time.Since(clockBase)) }

// abandon takes back the waiter of a call whose caller stopped waiting
// and returns it to the pool. If a reply beat the caller to cc.mu, it
// already sits in the channel's one slot; draining it keeps the pooled
// waiter empty.
func (cc *clientConn) abandon(corr uint64, w *waiter, err error) error {
	cc.mu.Lock()
	if _, ok := cc.waiters[corr]; ok {
		delete(cc.waiters, corr)
	} else {
		<-w.ch
	}
	cc.mu.Unlock()
	waiterPool.Put(w)
	return err
}

// finish removes a waiter from the map and hands it its one reply. The
// send never blocks: the channel holds one reply and this is the only
// send of the registration.
//
// requires mu
func (cc *clientConn) finish(corr uint64, w *waiter, r reply) {
	delete(cc.waiters, corr)
	w.ch <- r
}

// getConn returns the next pooled connection, dialing a replacement
// if the slot is empty or dead. Redials are serialized per slot, so a
// thundering herd of callers shares one fresh connection.
func (c *Client) getConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.pool == nil {
		c.pool = make([]*connSlot, c.conns())
		for i := range c.pool {
			c.pool[i] = &connSlot{}
		}
	}
	slot := c.pool[int(c.rr.Add(1))%len(c.pool)]
	c.mu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.cc != nil && !slot.cc.dead() {
		return slot.cc, nil
	}
	fresh, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	slot.cc = fresh
	return fresh, nil
}

// dial opens and handshakes one connection.
func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	d := net.Dialer{Timeout: c.dialTimeout()}
	raw, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrTransport, c.Addr, err)
	}
	cc := &clientConn{
		c:       raw,
		br:      bufio.NewReaderSize(raw, 1<<16),
		sendq:   make(chan Msg, 256),
		closed:  make(chan struct{}),
		waiters: make(map[uint64]*waiter),
		stats:   &c.stats,
		max:     c.maxBatch(),
	}
	// Hello handshake, synchronous: send version, expect the server's
	// version + ring generation back.
	hello := AppendFrame(nil, TypeHello, []Msg{{Corr: 1, Proto: ProtoVersion}})
	_ = raw.SetDeadline(time.Now().Add(c.dialTimeout()))
	if _, err := raw.Write(hello); err != nil {
		raw.Close()
		return nil, fmt.Errorf("%w: hello: %v", ErrTransport, err)
	}
	typ, entries, err := ReadFrame(cc.br)
	if err != nil || typ != TypeHello || len(entries) != 1 || entries[0].Proto != ProtoVersion {
		raw.Close()
		return nil, fmt.Errorf("%w: bad hello from %s (%v)", ErrTransport, c.Addr, err)
	}
	_ = raw.SetDeadline(time.Time{})
	if gen := entries[0].RingGen; gen != 0 {
		c.ringGen.Store(gen)
	}
	cc.budget = time.Duration(entries[0].TimeoutMS) * time.Millisecond
	c.stats.ConnsOpened.Add(1)
	cc.corr.Store(1) // 1 was the hello
	go cc.readLoop()
	go cc.writeLoop()
	go cc.sweepLoop(max(c.opTimeout()/4, time.Millisecond))
	return cc, nil
}

// clientConn is one pooled connection: a writer that batches the send
// queue into frames, a reader that dispatches responses by correlation
// ID, and a sweep that fails calls whose response never came.
type clientConn struct {
	c      net.Conn
	br     *bufio.Reader
	sendq  chan Msg
	closed chan struct{}
	corr   atomic.Uint64
	stats  *ClientStats
	max    int
	// inflight counts round trips between registering their waiter and
	// returning: entries queued for the writer plus responses awaited.
	inflight atomic.Int64
	// budget is the server's default acquire wait budget from the
	// hello (0 if the server predates the field); immutable after dial.
	budget time.Duration

	mu      sync.Mutex         //lint:order rank wireclient 30
	waiters map[uint64]*waiter // guarded by mu
	err     error              // guarded by mu
}

func (cc *clientConn) dead() bool {
	select {
	case <-cc.closed:
		return true
	default:
		return false
	}
}

// close tears the connection down once and fails every registered
// waiter with err.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.closed)
		for corr, w := range cc.waiters { //lint:sorted each waiter gets its own failure; no order is observable
			cc.finish(corr, w, reply{err: err})
		}
	}
	cc.mu.Unlock()
	cc.c.Close()
}

// readLoop hands response entries to their waiters. Unknown correlation
// IDs (duplicated frames, responses to abandoned or already failed
// calls) are dropped. Any framing or CRC error kills the connection: the
// stream cannot be resynced.
func (cc *clientConn) readLoop() {
	for {
		_, entries, err := ReadFrame(cc.br)
		if err != nil {
			cc.close(fmt.Errorf("%w: read: %v", ErrTransport, err))
			return
		}
		cc.mu.Lock()
		for i := range entries {
			if w := cc.waiters[entries[i].Corr]; w != nil {
				cc.finish(entries[i].Corr, w, reply{m: entries[i]})
			}
		}
		cc.mu.Unlock()
	}
}

// sweepLoop fails, every interval, each call whose response is overdue
// (its waiter's deadline has passed) with a retryable ErrTransport. One
// sweep per connection replaces a timer per call: a lost response is
// declared between its deadline and one interval later. The interval
// must be positive.
func (cc *clientConn) sweepLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-cc.closed:
			return
		case <-t.C:
		}
		now := monotonic()
		cc.mu.Lock()
		for corr, w := range cc.waiters { //lint:sorted each overdue waiter gets its own failure; no order is observable
			if dl := w.deadline.Load(); dl != 0 && dl <= now {
				cc.finish(corr, w, reply{err: fmt.Errorf("%w: response timed out", ErrTransport)})
			}
		}
		cc.mu.Unlock()
	}
}

// writeLoop coalesces queued entries into batched frames: one blocking
// receive, then an opportunistic drain (with one scheduler yield while
// other callers are in flight, see coalesce), one write straight to the
// socket. Under concurrency this is where pipelining pays — many
// goroutines' ops ride one TCP segment. The drain caps by entry count; frameGroups
// additionally splits the batch by encoded size, so a run of maximal
// acquires can never assemble a frame past MaxPayload.
func (cc *clientConn) writeLoop() {
	batch := make([]Msg, 0, cc.max)
	var buf []byte
	var groups [][]Msg
	for {
		select {
		case <-cc.closed:
			return
		case first := <-cc.sendq:
			batch = append(batch[:0], first)
		}
		batch = coalesce(batch, cc.sendq, cc.max, &cc.inflight)
		buf = buf[:0]
		groups = frameGroups(groups[:0], batch)
		for _, group := range groups {
			buf = AppendFrame(buf, group[0].Type, group)
		}
		cc.stats.observeBatch(len(batch))
		if _, err := cc.c.Write(buf); err != nil {
			cc.close(fmt.Errorf("%w: write: %v", ErrTransport, err))
			return
		}
	}
}
