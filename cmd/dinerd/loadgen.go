package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// loadgen hammers a running dinerd with concurrent acquire/hold/release
// cycles and reports client-observed latency percentiles. It replicates
// the placement ring from /v1/ring, keeps ordinary draws single-shard,
// and breaks the percentiles out per shard; -span mixes in cross-shard
// multi-key sets (one key per distinct shard) that exercise the
// router's span protocol.
func loadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:7467", "dinerd base URL (catalog probe + HTTP load)")
		transport = fs.String("transport", "http", "load transport: http or wire")
		wireAddr  = fs.String("wire-addr", "127.0.0.1:7468", "wire listener host:port (when -transport wire)")
		wireConns = fs.Int("wire-conns", 8, "wire connection pool size shared by all clients")
		clients   = fs.Int("clients", 8, "concurrent clients")
		duration  = fs.Duration("duration", 10*time.Second, "load duration")
		hold      = fs.Duration("hold", 5*time.Millisecond, "lease hold time per grant")
		pair      = fs.Float64("pair", 0.2, "probability a request asks for two locks sharing a worker")
		span      = fs.Float64("span", 0, "probability a request draws a cross-shard multi-key set (needs -shards >= 2 on the server)")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-acquire wait budget")
		seed      = fs.Int64("seed", 1, "client randomness seed")
		keys      = fs.Int("keys", 0, "synthetic named-resource keyspace size (0 = lock raw edge names)")
		dist      = fs.String("dist", "uniform", "single-key draw distribution: uniform | zipf | hotset")
		skew      = fs.Float64("skew", 1.2, "zipf skew exponent s (>1; higher concentrates load on fewer keys)")
		hotset    = fs.Int("hotset", 8, "hotset mode: hot-key count, drawn from one shard's keys")
		hot       = fs.Float64("hot", 0.9, "hotset mode: probability a draw hits the hot set")
		failover  = fs.Bool("failover", false, "print the failover summary: per-shard role/incarnation/lag and promotion counters (needs a replicated router)")
	)
	fs.Parse(args)
	if *transport != "http" && *transport != "wire" {
		fail(fmt.Errorf("unknown -transport %q (want http or wire)", *transport))
	}
	switch *dist {
	case "uniform", "zipf", "hotset":
	default:
		fail(fmt.Errorf("unknown -dist %q (want uniform, zipf, or hotset)", *dist))
	}
	if *dist == "zipf" && *skew <= 1 {
		fail(fmt.Errorf("-skew must be > 1 for zipf draws (got %g)", *skew))
	}

	probe := lockservice.NewClient(*addr)
	ctx, cancel := context.WithTimeout(context.Background(), *duration+30*time.Second)
	defer cancel()
	rep, err := probe.Status(ctx)
	if err != nil {
		fail(fmt.Errorf("cannot reach %s: %w", *addr, err))
	}
	if len(rep.Edges) == 0 {
		fail(fmt.Errorf("server at %s exposes no lockable resources", *addr))
	}

	// With the ring in hand the catalog keeps every request on one shard
	// and each acquire asserts the generation the placement was resolved
	// under.
	info, err := probe.Ring(ctx)
	if err != nil {
		fail(fmt.Errorf("cannot read %s/v1/ring: %w", *addr, err))
	}
	cat := buildCatalog(*keys, rep.Edges, replicaRing(info))

	target := *addr
	if *transport == "wire" {
		target = *wireAddr
	}
	distLabel := *dist
	switch *dist {
	case "zipf":
		distLabel = fmt.Sprintf("zipf s=%g", *skew)
	case "hotset":
		distLabel = fmt.Sprintf("hotset %d@%.0f%%", *hotset, *hot*100)
	}
	fmt.Printf("loadgen: %d clients for %v against %s via %s (%s, %d keys over %d locks, %d shards, %s draws)\n",
		*clients, *duration, target, *transport, rep.Topology, len(cat.keys), len(rep.Edges), len(cat.shards), distLabel)

	res := runLoad(ctx, cat, loadOpts{
		addr:      target,
		transport: *transport,
		wireConns: *wireConns,
		clients:   *clients,
		duration:  *duration,
		hold:      *hold,
		timeout:   *timeout,
		pair:      *pair,
		span:      *span,
		seed:      *seed,
		dist:      distOpts{dist: *dist, skew: *skew, hotset: *hotset, hot: *hot},
	})

	summary := stats.NewTable("loadgen summary", "metric", "value")
	summary.AddRow("grants", res.grants.Load())
	if *span > 0 {
		summary.AddRow("cross-shard span grants", res.spanGrants.Load())
	}
	summary.AddRow("throughput (grants/s)", fmt.Sprintf("%.1f", float64(res.grants.Load())/duration.Seconds()))
	summary.AddRow("timeouts (408)", res.timeouts.Load())
	summary.AddRow("backpressure (429)", res.busy.Load())
	summary.AddRow("unserviceable (422)", res.unserviceable.Load())
	if v := res.leaderless.Load(); v > 0 || *failover {
		summary.AddRow("leaderless, retries exhausted (503)", v)
	}
	if v := res.staleRing.Load(); v > 0 || *failover {
		summary.AddRow("stale ring, retries exhausted (409)", v)
	}
	summary.AddRow("other failures", res.failures.Load())
	summary.Render(os.Stdout)

	xs := res.overall.Samples()
	ms := func(q float64) string {
		return fmt.Sprintf("%.2f", stats.Quantile(xs, q)*1000)
	}
	lat := stats.NewTable("acquire latency (client-observed)",
		"p50 (ms)", "p90 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)")
	lat.AddRow(ms(0.50), ms(0.90), ms(0.95), ms(0.99), ms(1.0))
	lat.Render(os.Stdout)

	per := stats.NewTable("per-shard acquire latency",
		"shard", "grants", "p50 (ms)", "p95 (ms)", "p99 (ms)")
	for _, s := range cat.shards {
		t := res.perShard[s]
		per.AddRow(s, t.grants.Load(),
			fmt.Sprintf("%.2f", quantileMS(t.rec, 0.50)),
			fmt.Sprintf("%.2f", quantileMS(t.rec, 0.95)),
			fmt.Sprintf("%.2f", quantileMS(t.rec, 0.99)))
	}
	per.Render(os.Stdout)

	printWireStats(res.wire)
	text, err := probe.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: cannot scrape /metrics: %v\n", err)
	}
	scraped := parseSamples(text)
	if *failover {
		printFailoverSummary(ctx, probe, scraped)
	}
	printSubstrateCounters(scraped)

	if res.failures.Load() > 0 {
		os.Exit(1)
	}
}

// printWireStats reports the shared wire client's connection reuse and
// outbound batch-size distribution — the two numbers that explain why
// the framed transport outruns HTTP (no per-op connection churn, many
// entries per TCP write). No-op for HTTP runs (s == nil).
func printWireStats(s *wire.ClientStats) {
	if s == nil {
		return
	}
	conns, ops, writes := s.ConnsOpened.Load(), s.Ops.Load(), s.Writes.Load()
	entries := s.BatchedEntries.Load()
	reuse := stats.NewTable("wire transport", "metric", "value")
	reuse.AddRow("connections opened", conns)
	reuse.AddRow("operations", ops)
	reuse.AddRow("retries", s.Retries.Load())
	if conns > 0 {
		reuse.AddRow("ops per connection (reuse)", fmt.Sprintf("%.1f", float64(ops)/float64(conns)))
	}
	reuse.AddRow("tcp writes", writes)
	if writes > 0 {
		reuse.AddRow("entries per write (mean batch)", fmt.Sprintf("%.2f", float64(entries)/float64(writes)))
	}
	reuse.Render(os.Stdout)

	sizes := s.BatchSizes()
	if len(sizes) == 0 {
		return
	}
	var keys []int
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	dist := stats.NewTable("wire batch-size distribution", "entries/frame", "writes", "share (%)")
	for _, k := range keys {
		dist.AddRow(k, sizes[k], fmt.Sprintf("%.1f", 100*float64(sizes[k])/float64(writes)))
	}
	dist.Render(os.Stdout)
}

// printFailoverSummary reports the replica-set state of a replicated
// router after a load run: per-shard role, incarnation, standby count,
// and replication lag from /v1/status, plus the promotion counters from
// the scrape. Unreplicated shards show zero standbys.
func printFailoverSummary(ctx context.Context, c *lockservice.Client, scraped map[string]float64) {
	rep, err := c.Status(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: cannot read /v1/status: %v\n", err)
		return
	}
	per := stats.NewTable("per-shard replica state",
		"shard", "role", "incarnation", "standbys", "repl lag (records)")
	for _, r := range rep.Reports {
		per.AddRow(r.ShardID, r.Role, r.ShardIncarnation, r.Standbys, r.ReplicationLag)
	}
	per.Render(os.Stdout)
	seriesTable("failover counters (server-side)", scraped, [][2]string{
		{"failovers completed", "dinerd_failover_total"},
		{"leaderless rejections (503)", "dinerd_leaderless_rejections_total"},
		{"promotions observed", "dinerd_promotion_seconds_count"},
		{"leases adopted", "dinerd_leases_adopted_total"},
	}).Render(os.Stdout)
}

// printSubstrateCounters reports the message-substrate and chaos
// counters from the scrape, so a load run shows what the transport went
// through (faults, restarts, reconnects), not just what clients
// observed.
func printSubstrateCounters(scraped map[string]float64) {
	tbl := seriesTable("substrate counters (server-side)", scraped, [][2]string{
		{"grants at hand (no dining round)", "dinerd_grants_at_hand_total"},
		{"  of which surrendered across the edge", "dinerd_bottles_surrendered_total"},
		{"frames sent", "dinerd_messages_sent_total"},
		{"frames dropped (full loop queue)", "dinerd_messages_dropped_total"},
		{"frames lost (loss/partitions)", "dinerd_messages_lost_total"},
		{"faults: dropped", "dinerd_faults_dropped_total"},
		{"faults: duplicated", "dinerd_faults_duplicated_total"},
		{"faults: corrupted", "dinerd_faults_corrupted_total"},
		{"faults: channel stalls", "dinerd_faults_delayed_total"},
		{"node restarts", "dinerd_node_restarts_total"},
		{"leases fenced", "dinerd_leases_fenced_total"},
		{"transport reconnects", "dinerd_transport_reconnects_total"},
		{"span acquires", "dinerd_span_acquires_total"},
		{"span commits", "dinerd_span_commits_total"},
		{"span rollbacks", "dinerd_span_rollback_total"},
		{"rebalances committed", "dinerd_rebalance_total"},
		{"rebalances aborted", "dinerd_rebalance_aborted_total"},
		{"migration fence bounces (409)", "dinerd_migration_fences_total"},
	})
	if frac := scraped["dinerd_hotkey_fraction"]; frac > 0 {
		tbl.AddRow("hottest key share of load", fmt.Sprintf("%.3f", frac))
	}
	tbl.Render(os.Stdout)
}

// seriesTable lists the scraped value of each {label, series} row that
// the server exported.
func seriesTable(title string, scraped map[string]float64, rows [][2]string) *stats.Table {
	tbl := stats.NewTable(title, "counter", "value")
	for _, r := range rows {
		if v, ok := scraped[r[1]]; ok {
			tbl.AddRow(r[0], v)
		}
	}
	return tbl
}

// parseSamples extracts the unlabelled series of a Prometheus text
// exposition (comment and labeled lines are skipped).
func parseSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// parseEdge reads the canonical "edge:a-b" form.
func parseEdge(name string) (a, b int, ok bool) {
	rest, ok := strings.CutPrefix(name, "edge:")
	if !ok {
		return 0, 0, false
	}
	as, bs, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, 0, false
	}
	a, err1 := strconv.Atoi(as)
	b, err2 := strconv.Atoi(bs)
	return a, b, err1 == nil && err2 == nil
}
