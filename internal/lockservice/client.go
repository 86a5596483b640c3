package lockservice

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Client talks to a dinerd server over its HTTP/JSON API with
// bounded retries and exponential backoff. Retries cover transport
// errors, 5xx responses, and backpressure (429); logical rejections
// (400/404/408/422) surface immediately as *APIError.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7467".
	BaseURL string
	// HTTPClient defaults to a client with a 60s overall timeout.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (default 4).
	MaxAttempts int
	// Backoff is the first retry delay (default 50ms); it doubles per
	// attempt, is capped by MaxBackoff (default 1s), and is jittered
	// over the upper half of the window so concurrent retriers spread
	// out instead of thundering back in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// jitter is the backoff jitter PRNG state, lazily seeded on first
	// use (tests can pre-seed it for reproducible schedules).
	jitter atomic.Uint64

	// ringGen caches the last ring generation observed from /v1/ring or
	// a 409 wrong-shard rejection. When non-zero it is asserted on every
	// acquire, so a sharded server can bounce placements the client
	// resolved before a ring membership change.
	ringGen atomic.Uint64
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RingGen is the server's ring generation when the response carried
	// one (409 wrong-shard rejections).
	RingGen uint64
	// RetryAfter is the server's backoff hint when the response carried
	// a Retry-After header (503 while a shard is leaderless during
	// failover). Zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dinerd: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether the client would retry this failure.
// 409 wrong-shard is retryable because the call is idempotent up to
// placement: nothing was queued, and the response names the live ring
// generation to retry under.
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusConflict ||
		e.StatusCode >= 500
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 60 * time.Second}
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

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
	// Full jitter over [d/2, d]: pure doubling re-synchronizes every
	// client that failed together, so each retry wave arrives as the
	// same thundering herd that caused the failure. Half the window is
	// kept deterministic so the cap still bounds tail latency.
	if c.jitter.Load() == 0 {
		c.jitter.CompareAndSwap(0, uint64(time.Now().UnixNano())|1)
	}
	x := splitmix(c.jitter.Add(0x9e3779b97f4a7c15))
	half := uint64(d / 2)
	return time.Duration(half + x%(half+1))
}

// do runs one HTTP round-trip and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr ErrorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		e := &APIError{StatusCode: resp.StatusCode, Message: msg, RingGen: apiErr.RingGen}
		if v := resp.Header.Get("Retry-After"); v != "" {
			// Seconds form only (possibly fractional, as the router
			// emits); the HTTP-date form is not worth parsing here.
			if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
				e.RetryAfter = time.Duration(secs * float64(time.Second))
			}
		}
		return e
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// retryDelay resolves the wait before retry number attempt: the
// server's Retry-After hint when the last rejection carried one
// (capped by MaxBackoff, jittered over its upper half so a fleet
// released at the same instant spreads out), else the client's own
// exponential backoff.
func (c *Client) retryDelay(attempt int, last error) time.Duration {
	apiErr, ok := last.(*APIError)
	if !ok || apiErr.RetryAfter <= 0 {
		return c.backoff(attempt)
	}
	d := apiErr.RetryAfter
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	if d > maxB {
		d = maxB
	}
	if c.jitter.Load() == 0 {
		c.jitter.CompareAndSwap(0, uint64(time.Now().UnixNano())|1)
	}
	x := splitmix(c.jitter.Add(0x9e3779b97f4a7c15))
	half := uint64(d / 2)
	return time.Duration(half + x%(half+1))
}

// call runs do with retry/backoff on transport errors and retryable
// API errors, respecting ctx between attempts.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	var last error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.retryDelay(attempt-1, last)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := c.do(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		last = err
		if apiErr, ok := err.(*APIError); ok {
			if !apiErr.IsRetryable() {
				return err
			}
			if apiErr.StatusCode == http.StatusConflict && apiErr.RingGen != 0 {
				// Adopt the live generation so the retry routes correctly.
				c.ringGen.Store(apiErr.RingGen)
				if ar, ok := body.(*AcquireRequest); ok {
					ar.RingGen = apiErr.RingGen
				}
			}
		}
		if ctx.Err() != nil {
			return last
		}
	}
	return last
}

// Acquire requests the resource set and blocks until grant, rejection,
// or ctx cancellation. timeout, when positive, is forwarded as the
// server-side wait budget.
//
//lint:lease acquire
func (c *Client) Acquire(ctx context.Context, resources []string, timeout, ttl time.Duration) (*AcquireResponse, error) {
	req := AcquireRequest{Resources: resources, RingGen: c.ringGen.Load()}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	if ttl > 0 {
		req.TTLMS = ttl.Milliseconds()
	}
	var resp AcquireResponse
	if err := c.call(ctx, http.MethodPost, "/v1/acquire", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ring fetches the router's ring description and caches its generation
// for subsequent acquires.
func (c *Client) Ring(ctx context.Context) (*RingInfo, error) {
	var info RingInfo
	if err := c.call(ctx, http.MethodGet, "/v1/ring", nil, &info); err != nil {
		return nil, err
	}
	c.ringGen.Store(info.Generation)
	return &info, nil
}

// RingGen returns the cached ring generation (0 before the first Ring
// call or 409 rejection).
func (c *Client) RingGen() uint64 { return c.ringGen.Load() }

// Leave retires a worker from service (membership leave). Not retried:
// membership changes are distinct events, like Crash.
func (c *Client) Leave(ctx context.Context, node int) (*MembershipResponse, error) {
	return c.membership(ctx, "leave", node)
}

// Join readmits a departed worker through the humble clean reboot.
func (c *Client) Join(ctx context.Context, node int) (*MembershipResponse, error) {
	return c.membership(ctx, "join", node)
}

func (c *Client) membership(ctx context.Context, op string, node int) (*MembershipResponse, error) {
	var resp MembershipResponse
	path := fmt.Sprintf("/v1/admin/%s?node=%d", op, node)
	if err := c.do(ctx, http.MethodPost, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Release releases a granted session.
//
//lint:lease release
func (c *Client) Release(ctx context.Context, sessionID string) error {
	return c.call(ctx, http.MethodPost, "/v1/release", ReleaseRequest{SessionID: sessionID}, nil)
}

// Renew extends a live lease's TTL and returns the granted lifetime.
//
//lint:lease renew
func (c *Client) Renew(ctx context.Context, sessionID string, ttl time.Duration) (time.Duration, error) {
	req := RenewRequest{SessionID: sessionID}
	if ttl > 0 {
		req.TTLMS = ttl.Milliseconds()
	}
	var resp RenewResponse
	if err := c.call(ctx, http.MethodPost, "/v1/renew", req, &resp); err != nil {
		return 0, err
	}
	return time.Duration(resp.TTLMS) * time.Millisecond, nil
}

// Status fetches the server's status report.
func (c *Client) Status(ctx context.Context) (*StatusReport, error) {
	var rep StatusReport
	if err := c.call(ctx, http.MethodGet, "/v1/status", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Crash injects a fault: steps > 0 crashes the node maliciously (it
// takes that many arbitrary-state steps first), steps <= 0 is a clean
// kill. Not retried — fault injection is not idempotent in spirit.
func (c *Client) Crash(ctx context.Context, node, steps int) error {
	path := fmt.Sprintf("/v1/admin/crash?node=%d&steps=%d", node, steps)
	return c.do(ctx, http.MethodPost, path, nil, nil)
}

// Restart revives a crashed (or live) node; garbage revives it with
// arbitrary protocol state instead of clean. Not retried, like Crash —
// each call is a distinct fault-injection event.
func (c *Client) Restart(ctx context.Context, node int, garbage bool) (*RestartResponse, error) {
	mode := "clean"
	if garbage {
		mode = "garbage"
	}
	path := fmt.Sprintf("/v1/admin/restart?node=%d&mode=%s", node, mode)
	var resp RestartResponse
	if err := c.do(ctx, http.MethodPost, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: string(b)}
	}
	return string(b), nil
}
