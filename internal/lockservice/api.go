package lockservice

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// AcquireRequest is the body of POST /v1/acquire.
type AcquireRequest struct {
	// Resources are the lock names to acquire atomically.
	Resources []string `json:"resources"`
	// TimeoutMS optionally caps the wait for a grant (server clamps to
	// its configured maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TTLMS optionally overrides the lease time-to-live.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Client optionally identifies the requester (logging only).
	Client string `json:"client,omitempty"`
	// RingGen, when non-zero, is the ring generation the client routed
	// under; a Router rejects a stale generation with 409 so the client
	// re-resolves key placement before retrying.
	RingGen uint64 `json:"ring_gen,omitempty"`
}

// AcquireResponse is the body of a successful acquire.
type AcquireResponse struct {
	SessionID string   `json:"session_id"`
	Node      int      `json:"node"`
	Resources []string `json:"resources"`
	WaitMS    float64  `json:"wait_ms"`
}

// ReleaseRequest is the body of POST /v1/release.
type ReleaseRequest struct {
	SessionID string `json:"session_id"`
}

// ReleaseResponse is the body of a successful release.
type ReleaseResponse struct {
	Released bool `json:"released"`
}

// RenewRequest is the body of POST /v1/renew.
type RenewRequest struct {
	SessionID string `json:"session_id"`
	// TTLMS optionally overrides the lease time-to-live; 0 renews for
	// the server default.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// RenewResponse is the body of a successful renew.
type RenewResponse struct {
	Renewed bool `json:"renewed"`
	// TTLMS is the granted lease lifetime from now.
	TTLMS int64 `json:"ttl_ms"`
}

// NodeStatus is one worker's row in GET /v1/status.
type NodeStatus struct {
	ID          int    `json:"id"`
	Shard       int    `json:"shard,omitempty"`
	State       string `json:"state"`
	Dead        bool   `json:"dead"`
	Departed    bool   `json:"departed,omitempty"`
	Depth       int    `json:"depth"`
	Events      int64  `json:"events"`
	Eats        int64  `json:"eats"`
	QueueDepth  int    `json:"queue_depth"`
	Incarnation int64  `json:"incarnation"`
}

// StatusReport is the body of GET /v1/status: the Router's aggregate,
// with Shards set to the shard count, RingGen to the current ring
// generation, and one report per shard — the same shape, ShardID filled
// and Shards zero — under Reports.
type StatusReport struct {
	Topology     string       `json:"topology"`
	ShardID      int          `json:"shard_id"`
	Shards       int          `json:"shards,omitempty"`
	RingGen      uint64       `json:"ring_gen"`
	Workers      int          `json:"workers"`
	Locks        int          `json:"locks"`
	Edges        []string     `json:"edges"`
	Nodes        []NodeStatus `json:"nodes"`
	ActiveLeases int          `json:"active_leases"`
	QueueDepth   int          `json:"queue_depth"`
	Grants       int64        `json:"grants"`
	UptimeMS     int64        `json:"uptime_ms"`
	Draining     bool         `json:"draining"`
	// Failover fields, filled by a Router for per-shard reports:
	// Role is "primary" or "halted", ShardIncarnation counts promotions
	// (starts at 1), Standbys is the live hot-standby count, and
	// ReplicationLag is the widest standby lag in lease records.
	Role             string         `json:"role,omitempty"`
	ShardIncarnation uint64         `json:"incarnation,omitempty"`
	Standbys         int            `json:"standbys,omitempty"`
	ReplicationLag   int64          `json:"replication_lag,omitempty"`
	Reports          []StatusReport `json:"reports,omitempty"`
	// Control, filled by a Router with the rebalance loop running: the
	// controller's sensor snapshot (per-shard load and top-K keys),
	// derived tuning, and the override table version.
	Control *ControlReport `json:"control,omitempty"`
}

// ControlReport is the rebalance controller's /v1/status section.
type ControlReport struct {
	control.Status
	// OverrideCount is the number of keys pinned off their hash homes;
	// OverrideGen is the ring generation of the last override change —
	// the override table's version under the generation protocol.
	OverrideCount int    `json:"override_count"`
	OverrideGen   uint64 `json:"override_gen"`
}

// ErrorResponse is the body of every non-2xx response. RingGen rides
// along on 409 wrong-shard rejections so the client can refresh its
// cached generation without a /v1/ring round-trip.
type ErrorResponse struct {
	Error   string `json:"error"`
	RingGen uint64 `json:"ring_gen,omitempty"`
}

// CrashResponse is the body of a successful fault injection.
type CrashResponse struct {
	Node  int    `json:"node"`
	Steps int    `json:"steps"`
	Mode  string `json:"mode"`
}

// RestartResponse is the body of a successful node restart.
type RestartResponse struct {
	Node int `json:"node"`
	// Mode is "clean" or "arbitrary".
	Mode string `json:"mode"`
	// Fenced is how many leases homed at the node were revoked.
	Fenced int `json:"fenced"`
}

// MembershipResponse is the body of a successful leave or join.
type MembershipResponse struct {
	Node int `json:"node"`
	// Op is "leave" or "join".
	Op string `json:"op"`
	// Fenced is how many leases the leave revoked (0 for joins).
	Fenced int `json:"fenced"`
}

// Status assembles the current status report.
func (s *Server) Status() StatusReport {
	table := s.nw.Table()
	depths := s.core.arb.QueueDepths()
	rep := StatusReport{
		Topology: s.g.String(),
		ShardID:  s.cfg.ShardID,
		RingGen:  s.ringGen.Load(),
		Workers:  s.g.N(),
		Locks:    s.g.EdgeCount(),
		Grants:   s.metrics.Grants.Load(),
		UptimeMS: s.Uptime().Milliseconds(),
	}
	for _, e := range s.g.Edges() {
		rep.Edges = append(rep.Edges, EdgeName(e))
	}
	for p, snap := range table {
		st := snap.State.String()
		if !snap.State.Valid() {
			st = "?"
		}
		rep.Nodes = append(rep.Nodes, NodeStatus{
			ID: p, Shard: s.cfg.ShardID, State: st, Dead: snap.Dead,
			Departed: s.Departed(graph.ProcID(p)), Depth: snap.Depth,
			Events: snap.Events, Eats: snap.Eats, QueueDepth: depths[p],
			Incarnation: snap.Incarnation,
		})
		rep.QueueDepth += depths[p]
	}
	rep.ActiveLeases = s.ActiveLeases()
	s.mu.Lock()
	rep.Draining = s.draining
	s.mu.Unlock()
	return rep
}

// Handler returns dinerd's one HTTP surface. Every mutating endpoint is
// POST; errors answer ErrorResponse bodies.
//
//	POST /v1/acquire         ring-routed acquire (409 + ring_gen on a stale generation)
//	POST /v1/release         release, routed by the session-ID shard prefix
//	POST /v1/renew           extend a live lease's TTL
//	GET  /v1/status          aggregated report with per-shard sub-reports
//	GET  /v1/ring            ring seed/vnodes/generation/members/overrides
//	GET  /metrics            Prometheus exposition of every registered family
//	POST /v1/admin/crash     ?node=N&steps=K[&shard=S]: malicious (or benign) crash
//	POST /v1/admin/restart   ?node=N&mode=clean|garbage[&shard=S]: revive a worker
//	POST /v1/admin/leave     ?node=N[&shard=S]: retire a worker from service
//	POST /v1/admin/join      ?node=N[&shard=S]: readmit a departed worker
//	POST /v1/admin/ring      ?op=leave|join&shard=S: ring membership
//	POST /v1/admin/failover  ?shard=S: kill the shard primary, await promotion
//	POST /v1/admin/migrate   ?key=K&to=S: fence/drain/commit one key move
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/acquire", r.handleAcquire)
	mux.HandleFunc("/v1/release", r.handleRelease)
	mux.HandleFunc("/v1/renew", r.handleRenew)
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.Status())
	})
	mux.HandleFunc("/v1/ring", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.RingInfo())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/v1/admin/crash", admin(r.onNode(adminCrash)))
	mux.HandleFunc("/v1/admin/restart", admin(r.onNode(adminRestart)))
	mux.HandleFunc("/v1/admin/leave", admin(r.onNode(adminLeave)))
	mux.HandleFunc("/v1/admin/join", admin(r.onNode(adminJoin)))
	mux.HandleFunc("/v1/admin/ring", admin(r.adminRing))
	mux.HandleFunc("/v1/admin/failover", admin(r.adminFailover))
	mux.HandleFunc("/v1/admin/migrate", admin(r.adminMigrate))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr answers a defect in the request itself (method, body, query)
// with an explicit status.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// statusFor maps the service's sentinel errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnmappable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrWrongShard), errors.Is(err, ErrSpanAborted), errors.Is(err, ErrDeposed):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTimeout):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnserviceable),
		errors.Is(err, ErrHalted), errors.Is(err, ErrLeaderless):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// writeServiceErr answers a failed acquire, release or renew. It is the
// one place the retry hints are applied: a leaderless shard knows its
// remaining blackout, so the 503 says exactly how long to back off
// (fractional seconds); a 429 carries the controller's pacing hint; a
// 409 ships the live ring generation so the client can retry without a
// /v1/ring round-trip.
func (r *Router) writeServiceErr(w http.ResponseWriter, err error) {
	code := statusFor(err)
	body := ErrorResponse{Error: err.Error()}
	var ra *RetryAfterError
	switch {
	case errors.As(err, &ra):
		w.Header().Set("Retry-After", strconv.FormatFloat(ra.After.Seconds(), 'f', 3, 64))
	case code == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", r.retryAfterHint())
	case code == http.StatusConflict:
		body.RingGen = r.generation()
	}
	writeJSON(w, code, body)
}

// postJSON enforces POST and decodes the request body into body,
// answering 405/400 itself; it reports whether the handler may go on.
func postJSON(w http.ResponseWriter, req *http.Request, body any) bool {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	if body == nil {
		return true
	}
	if err := json.NewDecoder(req.Body).Decode(body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (r *Router) handleAcquire(w http.ResponseWriter, req *http.Request) {
	var body AcquireRequest
	if !postJSON(w, req, &body) {
		return
	}
	if len(body.Resources) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("resources must be non-empty"))
		return
	}
	ctx := req.Context()
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	grant, err := r.Acquire(ctx, body.Resources, time.Duration(body.TTLMS)*time.Millisecond, body.RingGen)
	if err != nil {
		r.writeServiceErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AcquireResponse{
		SessionID: grant.SessionID,
		Node:      int(grant.Node),
		Resources: grant.Resources,
		WaitMS:    float64(grant.Wait.Microseconds()) / 1000,
	})
}

func (r *Router) handleRelease(w http.ResponseWriter, req *http.Request) {
	var body ReleaseRequest
	if !postJSON(w, req, &body) {
		return
	}
	if err := r.Release(body.SessionID); err != nil {
		r.writeServiceErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{Released: true})
}

func (r *Router) handleRenew(w http.ResponseWriter, req *http.Request) {
	var body RenewRequest
	if !postJSON(w, req, &body) {
		return
	}
	ttl, err := r.Renew(body.SessionID, time.Duration(body.TTLMS)*time.Millisecond)
	if err != nil {
		r.writeServiceErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RenewResponse{Renewed: true, TTLMS: ttl.Milliseconds()})
}

// conflict marks an admin failure that is service state worth retrying
// (409) rather than a defect in the request (400, the default).
type conflict struct{ error }

// admin wraps one admin operation as a handler: POST only; op reads its
// query parameters and acts; its result or failure is answered as JSON.
func admin(op func(q url.Values) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !postJSON(w, req, nil) {
			return
		}
		out, err := op(req.URL.Query())
		if errors.As(err, new(conflict)) {
			writeErr(w, http.StatusConflict, err)
		} else if err != nil {
			writeErr(w, http.StatusBadRequest, err)
		} else {
			writeJSON(w, http.StatusOK, out)
		}
	}
}

// shardOf reads ?shard=S, defaulting to def when absent (def < 0 makes
// it required).
func (r *Router) shardOf(q url.Values, def int) (int, error) {
	s, err := def, error(nil)
	if v := q.Get("shard"); v != "" {
		s, err = strconv.Atoi(v)
	}
	if err != nil || s < 0 || s >= len(r.sets) {
		return 0, fmt.Errorf("shard must be in [0,%d)", len(r.sets))
	}
	return s, nil
}

// onNode adapts a per-node operation: the shard is picked by ?shard=S
// (default 0), the worker by ?node=N, and op runs on that shard's
// serving primary.
func (r *Router) onNode(op func(s *Server, node graph.ProcID, q url.Values) (any, error)) func(url.Values) (any, error) {
	return func(q url.Values) (any, error) {
		shard, err := r.shardOf(q, 0)
		if err != nil {
			return nil, err
		}
		node, err := strconv.Atoi(q.Get("node"))
		if err != nil {
			return nil, errors.New("node query parameter required")
		}
		return op(r.Shard(shard), graph.ProcID(node), q)
	}
}

func adminCrash(s *Server, node graph.ProcID, q url.Values) (any, error) {
	steps := 0
	if v := q.Get("steps"); v != "" {
		var err error
		if steps, err = strconv.Atoi(v); err != nil {
			return nil, errors.New("steps must be an integer")
		}
	}
	mode := "malicious"
	if steps <= 0 {
		mode = "benign"
	}
	return CrashResponse{Node: int(node), Steps: steps, Mode: mode}, s.InjectCrash(node, steps)
}

func adminRestart(s *Server, node graph.ProcID, q url.Values) (any, error) {
	mode := msgpass.RestartClean
	switch q.Get("mode") {
	case "", "clean":
	case "garbage", "arbitrary":
		mode = msgpass.RestartArbitrary
	default:
		return nil, errors.New("mode must be clean or garbage")
	}
	fenced, err := s.RestartNode(node, mode)
	return RestartResponse{Node: int(node), Mode: mode.String(), Fenced: fenced}, err
}

func adminLeave(s *Server, node graph.ProcID, _ url.Values) (any, error) {
	fenced, err := s.LeaveNode(node)
	return MembershipResponse{Node: int(node), Op: "leave", Fenced: fenced}, err
}

func adminJoin(s *Server, node graph.ProcID, _ url.Values) (any, error) {
	return MembershipResponse{Node: int(node), Op: "join"}, s.JoinNode(node)
}

func (r *Router) adminRing(q url.Values) (any, error) {
	s, err := r.shardOf(q, -1)
	if err != nil {
		return nil, err
	}
	switch q.Get("op") {
	case "leave":
		err = r.RingLeave(s)
	case "join":
		err = r.RingJoin(s)
	default:
		err = errors.New("op must be leave or join")
	}
	return r.RingInfo(), err
}

// adminMigrate is the manual key-migration switch: POST
// /v1/admin/migrate?key=K&to=S runs the same fence/drain/commit
// protocol the controller actuates, so operators (and the chaos
// harness) can move a key without waiting for the feedback loop.
func (r *Router) adminMigrate(q url.Values) (any, error) {
	key := q.Get("key")
	if key == "" {
		return nil, errors.New("key query parameter required")
	}
	to, err := strconv.Atoi(q.Get("to"))
	if err != nil {
		return nil, errors.New("to query parameter must be a shard index")
	}
	// Request defects (unknown shard index) are the client's to fix;
	// everything else — already migrating, drain timeout, leaderless
	// destination — is migration state worth retrying, so 409.
	if err = r.MigrateKey(key, to); err != nil && !errors.Is(err, errMigrateInvalid) {
		err = conflict{err}
	}
	return r.RingInfo(), err
}

// adminFailover is the kill-primary admin switch: POST
// /v1/admin/failover?shard=S halts shard S's primary and waits for the
// supervisor to promote a standby, answering with the shard's new
// incarnation. It exists so the chaos harness exercises the real
// detection-and-promotion path over HTTP, not a test-only shortcut.
func (r *Router) adminFailover(q url.Values) (any, error) {
	s, err := r.shardOf(q, -1)
	if err != nil {
		return nil, err
	}
	timeout := 5 * time.Second
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			return nil, errors.New("timeout_ms must be a positive integer")
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if err := r.Failover(s, timeout); err != nil {
		return nil, conflict{err}
	}
	return r.ShardInfo(s), nil
}
