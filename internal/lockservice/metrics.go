package lockservice

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"mcdp/internal/msgpass"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// Metrics is dinerd's observability surface: plain atomic counters plus
// latency histograms. The grant path only ever does atomic adds on
// them; families() declares each one's exported series once, read at
// scrape time.
type Metrics struct {
	AcquireRequests       atomic.Int64
	Grants                atomic.Int64
	Releases              atomic.Int64
	Renewals              atomic.Int64
	Expirations           atomic.Int64
	RejectedQueueFull     atomic.Int64
	RejectedTimeout       atomic.Int64
	RejectedUnmappable    atomic.Int64
	RejectedUnserviceable atomic.Int64
	RejectedDraining      atomic.Int64
	CrashesInjected       atomic.Int64
	NodeRestarts          atomic.Int64
	NodeLeaves            atomic.Int64
	NodeJoins             atomic.Int64
	LeasesFenced          atomic.Int64
	LeasesAdopted         atomic.Int64

	// WaitHist observes hungry time: seconds from submission to grant.
	WaitHist *stats.LatencyHistogram
	// HoldHist observes lease hold time: seconds from grant to release.
	HoldHist *stats.LatencyHistogram
}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		WaitHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds()),
		HoldHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds()),
	}
}

// families declares the shard-level series: request counters,
// queue/lease gauges, per-node diners state, substrate message counters
// and the wait/hold histograms. A Router sums them across its shards.
func (s *Server) families() []stats.Family {
	m := s.metrics
	perNode := func(f func(snap msgpass.Snapshot, queued int) int64) func() []float64 {
		return func() []float64 {
			table, depths := s.nw.Table(), s.arb.QueueDepths()
			out := make([]float64, len(table))
			for p, snap := range table {
				out[p] = float64(f(snap, depths[p]))
			}
			return out
		}
	}
	return []stats.Family{
		stats.Counter("dinerd_acquire_requests_total", "Acquire requests received.", m.AcquireRequests.Load),
		stats.Counter("dinerd_grants_total", "Sessions granted.", m.Grants.Load),
		stats.Counter("dinerd_grants_at_hand_total", "Sessions granted without a dining round: every lock was free and nobody across its edge asked for it — already at the home worker, or surrendered by the live worker across the edge.", s.arb.AtHandGrants),
		stats.Counter("dinerd_bottles_surrendered_total", "Sessions granted without a dining round that took at least one lock surrendered by the live worker across its edge (a subset of dinerd_grants_at_hand_total).", s.arb.SurrenderedGrants),
		stats.Counter("dinerd_releases_total", "Sessions released by clients.", m.Releases.Load),
		stats.Counter("dinerd_lease_renewals_total", "Lease TTL extensions granted.", m.Renewals.Load),
		stats.Counter("dinerd_lease_expirations_total", "Leases expired by the server-side TTL janitor.", m.Expirations.Load),
		stats.Counter("dinerd_rejected_queue_full_total", "Acquires rejected for backpressure (429).", m.RejectedQueueFull.Load),
		stats.Counter("dinerd_rejected_timeout_total", "Acquires that timed out waiting (408).", m.RejectedTimeout.Load),
		stats.Counter("dinerd_rejected_unmappable_total", "Acquires naming resource sets with no common worker (422).", m.RejectedUnmappable.Load),
		stats.Counter("dinerd_rejected_unserviceable_total", "Acquires whose candidate workers are all dead (503).", m.RejectedUnserviceable.Load),
		stats.Counter("dinerd_rejected_draining_total", "Acquires rejected during drain (503).", m.RejectedDraining.Load),
		stats.Counter("dinerd_crashes_injected_total", "Faults injected through the admin endpoint.", m.CrashesInjected.Load),
		stats.Counter("dinerd_node_restarts_total", "Worker restarts (admin endpoint and supervisor).", m.NodeRestarts.Load),
		stats.Counter("dinerd_node_leaves_total", "Workers removed from service (membership leave).", m.NodeLeaves.Load),
		stats.Counter("dinerd_node_joins_total", "Departed workers readmitted (membership join).", m.NodeJoins.Load),
		stats.Counter("dinerd_leases_fenced_total", "Leases revoked because their home worker restarted.", m.LeasesFenced.Load),
		stats.Counter("dinerd_leases_adopted_total", "Replicated leases re-granted by a promoted standby.", m.LeasesAdopted.Load),
		stats.Counter("dinerd_messages_sent_total", "Frames sent by the diners substrate.", s.nw.MessagesSent),
		stats.Counter("dinerd_messages_dropped_total", "Frames dropped to full inboxes.", s.nw.MessagesDropped),
		stats.Counter("dinerd_messages_lost_total", "Frames lost in transit (loss injection / partitions).", s.nw.MessagesLost),
		stats.Counter("dinerd_transport_reconnects_total", "TCP edge reconnections after restarts or socket loss.", s.nw.Reconnects),
		stats.Counter("dinerd_faults_dropped_total", "Frames dropped by the chaos fault injector.", func() int64 { d, _, _, _ := s.nw.FaultsInjected(); return d }),
		stats.Counter("dinerd_faults_duplicated_total", "Frames duplicated by the chaos fault injector.", func() int64 { _, d, _, _ := s.nw.FaultsInjected(); return d }),
		stats.Counter("dinerd_faults_corrupted_total", "Frames payload-corrupted by the chaos fault injector.", func() int64 { _, _, c, _ := s.nw.FaultsInjected(); return c }),
		stats.Counter("dinerd_faults_delayed_total", "Channel stalls injected by the chaos fault injector.", func() int64 { _, _, _, d := s.nw.FaultsInjected(); return d }),
		stats.Gauge("dinerd_queue_depth", "Pending sessions across all worker queues.", func() float64 {
			total := 0
			for _, d := range s.arb.QueueDepths() {
				total += d
			}
			return float64(total)
		}),
		stats.Gauge("dinerd_active_leases", "Currently granted, unreleased leases.", func() float64 { return float64(s.ActiveLeases()) }),
		stats.Vec("gauge", "dinerd_node_queue_depth", "Pending sessions per worker.", "node",
			perNode(func(_ msgpass.Snapshot, queued int) int64 { return int64(queued) })),
		stats.Vec("gauge", "dinerd_node_state", "Diners state per worker (1=thinking 2=hungry 3=eating, 0=dead).", "node",
			perNode(func(snap msgpass.Snapshot, _ int) int64 {
				if snap.Dead {
					return 0
				}
				return int64(snap.State)
			})),
		stats.Vec("counter", "dinerd_node_eats_total", "Completed diners eating sessions per worker.", "node",
			perNode(func(snap msgpass.Snapshot, _ int) int64 { return snap.Eats })),
		stats.Hist("dinerd_acquire_wait_seconds", "Hungry time: submission to grant.", m.WaitHist),
		stats.Hist("dinerd_lease_hold_seconds", "Lease hold time: grant to release.", m.HoldHist),
	}
}

// families declares the router-level series: routing decisions, span
// and failover counters, and the per-shard role gauges.
func (r *Router) families() []stats.Family {
	m := r.metrics
	perShard := func(f func(i int, set *replicaSet) float64) func() []float64 {
		return func() []float64 {
			out := make([]float64, len(r.sets))
			for i, set := range r.sets {
				out[i] = f(i, set)
			}
			return out
		}
	}
	return []stats.Family{
		stats.Gauge("dinerd_router_ring_generation", "Consistent-hash ring generation.", func() float64 { return float64(r.generation()) }),
		stats.Counter("dinerd_router_wrong_shard_rejections_total", "Acquires routed under a stale ring generation (409).", m.WrongShardRejections.Load),
		stats.Counter("dinerd_span_acquires_total", "Cross-shard span acquires attempted.", m.SpanAcquires.Load),
		stats.Counter("dinerd_span_commits_total", "Cross-shard spans committed atomically.", m.SpanCommits.Load),
		stats.Counter("dinerd_span_rollback_total", "Cross-shard spans rolled back (sub-acquire failure, lost prepare, or fenced sub-lease).", m.SpanRollbacks.Load),
		stats.Vec("counter", "dinerd_router_shard_requests_total", "Acquire requests routed per shard.", "shard",
			perShard(func(i int, _ *replicaSet) float64 { return float64(m.ShardRequests[i].Load()) })),
		stats.Counter("dinerd_failover_total", "Completed standby promotions across all shards.", m.Failovers.Load),
		stats.Counter("dinerd_leaderless_rejections_total", "Requests bounced with 503+Retry-After while a shard was leaderless.", m.LeaderlessRejections.Load),
		stats.Hist("dinerd_promotion_seconds", "Standby promotion latency: decision to serving.", m.PromotionHist),
		stats.Vec("gauge", "dinerd_shard_role", "Shard role (1=primary serving, 0=halted/leaderless).", "shard",
			perShard(func(_ int, set *replicaSet) float64 {
				if set.primaryHealthy() {
					return 1
				}
				return 0
			})),
		stats.Vec("gauge", "dinerd_shard_incarnation", "Primary incarnation per shard (bumped on every promotion).", "shard",
			perShard(func(_ int, set *replicaSet) float64 { return float64(set.incarnation()) })),
		stats.Vec("gauge", "dinerd_shard_replication_lag", "Widest standby lag per shard, in lease records.", "shard",
			perShard(func(_ int, set *replicaSet) float64 { return float64(set.maxLag()) })),
	}
}

// Families is the table /metrics renders. Anything serving this router
// registers its own series into it at construction (the wire listener
// does), so one scrape covers every layer.
func (r *Router) Families() *stats.Families { return &r.fams }

// gather collects the router's table and folds in every shard
// primary's: samples with identical name and labels are summed, and
// node-labelled samples first gain a shard label so worker IDs that
// repeat across shards stay distinct.
func (r *Router) gather() []stats.Snapshot {
	snaps := r.fams.Collect()
	for i, set := range r.sets {
		shard := set.Primary().fams.Collect()
		for j := range shard {
			if shard[j].Label != "node" {
				continue
			}
			for k := range shard[j].Samples {
				shard[j].Samples[k].Labels += `,shard="` + strconv.Itoa(i) + `"`
			}
		}
		snaps = stats.Sum(snaps, shard)
	}
	return snaps
}

// WriteMetrics writes the whole service's exposition.
func (r *Router) WriteMetrics(w io.Writer) { stats.Write(w, r.gather()) }

// MetricNames returns the sorted names of every series family dinerd
// exports (router, shard, and wire listener), derived from the tables
// a throwaway one-shard service registers — tests and docs check
// against it.
func MetricNames() []string {
	rt := NewRouter(RouterConfig{})
	wire.NewServer(wire.ServerConfig{Backend: rt.WireBackend()}).Register(rt.Families())
	var names []string
	for _, f := range rt.gather() {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
