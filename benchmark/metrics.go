package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and bounds; TestBenchmarkJSONMatchesTables keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric may
	// worsen before -check (and the driver) call it a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the lock service sees. Every workload
// reports every one of them, so each is defined on all four workloads:
// *_mid_ms is the interquartile mean of the latency (see slices.go for
// why not the median), wide_* is the latency of the workload's widest
// request class
// (cross-shard spans on span_mix, same-worker pairs on saturate, all
// requests where the workload issues single keys only), and
// fault_p99_ratio compares the middle third of the window with the first
// third (crash_open crashes worker 0 for exactly the middle third; on the
// other workloads nothing happens there and the ratio shows drift).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"grants_per_s", "1/s", "higher", 0.15},
	{"grant_mid_ms", "ms", "lower", 0.25},
	{"grant_p99_ms", "ms", "lower", 0.25},
	{"wide_mid_ms", "ms", "lower", 0.20},
	{"wide_p99_ms", "ms", "lower", 0.25},
	{"fault_p99_ratio", "ratio", "lower", 0.25},
	{"ok_share", "share", "higher", 0.002},
}

// perLayer holds one layer's metrics each; the prefix is the module the
// number belongs to. The first block comes from the traced run and the
// public counters of the serving workload, the second from isolated
// drives of each layer's public API at a fixed seed.
var perLayer = []metricDef{
	{"wire.self_us_p50", "us", "lower", 0},
	{"wire.entries_per_write", "ratio", "higher", 0},
	{"wire.entries_per_frame_in", "ratio", "higher", 0},
	{"wire.retries_per_op", "ratio", "lower", 0},
	{"lockservice.self_us_p50", "us", "lower", 0},
	{"lockservice.wait_us_p50", "us", "lower", 0},
	{"lockservice.wait_us_p99", "us", "lower", 0},
	{"lockservice.release_us_p50", "us", "lower", 0},
	{"lockservice.span_rollbacks_per_span", "ratio", "lower", 0},
	{"lockservice.rejected_timeout_share", "share", "lower", 0},
	{"lockservice.rejected_queue_full_share", "share", "lower", 0},
	{"lockservice.leases_leaked", "count", "lower", 0},
	{"drinkers.queue_depth_mean", "count", "lower", 0},
	{"drinkers.queue_depth_max", "count", "lower", 0},
	{"msgpass.msgs_per_grant", "ratio", "lower", 0},
	{"msgpass.eats_per_grant", "ratio", "lower", 0},
	{"msgpass.recover_ms", "ms", "lower", 0},
	{"proc.cpu_us_per_grant", "us", "lower", 0},
	{"proc.alloc_bytes_per_grant", "B", "lower", 0},
	{"proc.allocs_per_grant", "count", "lower", 0},
	{"proc.gc_pause_ms_max", "ms", "lower", 0},
	{"proc.rss_mb_peak", "MB", "lower", 0},
	{"loadgen.grant_p50_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},

	{"wire.encode_ns_per_entry.b1", "ns", "lower", 0},
	{"wire.encode_ns_per_entry.b16", "ns", "lower", 0},
	{"wire.decode_ns_per_entry.b1", "ns", "lower", 0},
	{"wire.decode_ns_per_entry.b16", "ns", "lower", 0},
	{"wire.codec_allocs_per_entry.b1", "count", "lower", 0},
	{"wire.codec_allocs_per_entry.b16", "count", "lower", 0},
	{"shard.lookup_ns.o0", "ns", "lower", 0},
	{"shard.lookup_ns.o32", "ns", "lower", 0},
	{"lockservice.map_session_ns", "ns", "lower", 0},
	{"lockservice.server_inproc_us_p50", "us", "lower", 0},
	{"lockservice.router_inproc_us_p50", "us", "lower", 0},
	{"lockservice.repl_ack_us_p50", "us", "lower", 0},
	{"drinkers.cycle_ns", "ns", "lower", 0},
	{"msgpass.hungry_to_eat_us_p50", "us", "lower", 0},
	{"msgpass.hungry_to_eat_us_p99", "us", "lower", 0},
	{"msgpass.first_grant_ms", "ms", "lower", 0},
	{"sim.step_ns", "ns", "lower", 0},
	{"control.observe_ns", "ns", "lower", 0},
	{"control.decide_us", "us", "lower", 0},
	{"stats.observe_ns", "ns", "lower", 0},
}

// reading is one printed metric: the value and, where it is a median
// over slices or repetitions, the spread and size of that sample.
type reading struct {
	Value float64
	IQR   float64
	N     int
}

// readings maps metric name to its reading for one run of one workload.
type readings map[string]reading
