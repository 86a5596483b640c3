package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcdp/internal/bench"
	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// benchResult is one shard count's measurement in BENCH_shard.json.
type benchResult struct {
	Shards        int              `json:"shards"`
	Workers       int              `json:"workers"`
	Locks         int              `json:"locks"`
	Grants        int64            `json:"grants"`
	ThroughputPS  float64          `json:"throughput_per_s"`
	P50MS         float64          `json:"p50_ms"`
	P90MS         float64          `json:"p90_ms"`
	P99MS         float64          `json:"p99_ms"`
	Timeouts      int64            `json:"timeouts_408"`
	Backpressure  int64            `json:"backpressure_429"`
	Unserviceable int64            `json:"unserviceable_422"`
	SpanGrants    int64            `json:"span_grants,omitempty"`
	Failures      int64            `json:"failures"`
	PerShardGrant map[string]int64 `json:"per_shard_grants"`
}

// coreBench is one parsed `go test -bench` result line.
type coreBench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// benchFile is the full BENCH_shard.json artifact.
type benchFile struct {
	GeneratedUnix int64         `json:"generated_unix"`
	GoVersion     string        `json:"go_version"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	Config        benchConfig   `json:"config"`
	ShardSweep    []benchResult `json:"shard_sweep"`
	// Speedup4v1 is the acceptance quantity: 4-shard over 1-shard
	// throughput (omitted when either stage is missing from -shards).
	Speedup4v1 float64     `json:"speedup_4shard_vs_1shard,omitempty"`
	Core       []coreBench `json:"core_benchmarks,omitempty"`
}

type benchConfig struct {
	Topology  string  `json:"topology_per_shard"`
	Keys      int     `json:"keyspace"`
	Clients   int     `json:"clients"`
	DurationS float64 `json:"duration_s_per_stage"`
	TickUS    int64   `json:"tick_us"`
	HoldMS    float64 `json:"hold_ms"`
	Pair      float64 `json:"pair_probability"`
	Span      float64 `json:"span_probability,omitempty"`
	Seed      int64   `json:"seed"`
}

// benchCmd measures the service in-process — router, listeners, and
// client swarm all real — in one of two modes:
//
//   - transports (default): HTTP vs wire throughput over the identical
//     router config, sampled adaptively (warmup discarded, repeat until
//     the CV settles) and written as BENCH_wire.json with the
//     dimensionless wire_vs_http ratio. With -compare it instead gates
//     a run against a checked-in baseline and exits nonzero on
//     regression.
//   - shards: the shard-count scaling sweep behind BENCH_shard.json.
//
// Rerun `make bench-json` and diff the artifacts to see a regression.
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		mode      = fs.String("mode", "transports", "transports (HTTP vs wire), shards (scaling sweep), failover (kill-primary MTTR), or hotkey (static vs rebalancing controller under zipf)")
		replicas  = fs.Int("replicas", 2, "hot standbys per shard (failover mode)")
		kills     = fs.Int("kills", 4, "primary kills during the failover stage (failover mode)")
		shardsCSV = fs.String("shards", "", "shard counts: comma list to sweep (shards mode, default 1,2,4) or one count (transports mode, default 4)")
		topology  = fs.String("topology", "grid", "per-shard topology: grid|ring|path|torus|complete")
		rows      = fs.Int("rows", 3, "grid/torus rows")
		cols      = fs.Int("cols", 3, "grid/torus cols")
		n         = fs.Int("n", 8, "process count (ring/path/complete)")
		clients   = fs.Int("clients", 96, "concurrent clients per stage")
		duration  = fs.Duration("duration", 4*time.Second, "load duration per stage/sample")
		hold      = fs.Duration("hold", 5*time.Millisecond, "lease hold per grant (transports mode defaults to 0: it measures the transport, not the hold)")
		pair      = fs.Float64("pair", 0.2, "probability of a two-lock same-worker request")
		span      = fs.Float64("span", 0, "probability of a cross-shard multi-key request (shards mode)")
		keys      = fs.Int("keys", 512, "named-resource keyspace size (fixed across the sweep)")
		tick      = fs.Duration("tick", 2*time.Millisecond, "substrate gossip tick")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-acquire wait budget")
		seed      = fs.Int64("seed", 1, "substrate and client seed")
		warmup    = fs.Int("warmup", 1, "discarded warmup runs per transport (transports mode)")
		samples   = fs.Int("samples", 6, "max kept samples per transport (transports mode)")
		cv        = fs.Float64("cv", 0.10, "stop sampling at this coefficient of variation (transports mode)")
		wireConns = fs.Int("wire-conns", 8, "wire connection pool size (transports mode)")
		skew      = fs.Float64("skew", 1.05, "zipf skew exponent for the hot-key workload (hotkey mode)")
		cores     = fs.Int("cores", 1, "GOMAXPROCS pin during measurement (hotkey mode; the acceptance workload is one core so the win is balance, not parallelism)")
		compare   = fs.String("compare", "", "baseline BENCH_wire.json to gate against (transports mode)")
		tolerance = fs.Float64("tolerance", 0.15, "relative regression tolerance for -compare")
		corePath  = fs.String("core", "", "`go test -bench` output to parse and embed (shards mode)")
		out       = fs.String("out", "", "output JSON path (default BENCH_wire.json / BENCH_shard.json by mode)")
		profile   = fs.String("cpuprofile", "", "write a CPU profile of the measurement to this path")
	)
	fs.Parse(args)

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Mode-dependent defaults: the transports comparison measures the
	// per-grant transport cost, so it drops the artificial hold unless
	// one was asked for explicitly; the shard sweep keeps 5ms so lock
	// dwell time stays realistic. The hotkey comparison drops the
	// two-lock mixture (bucket draws are uniform and would dilute the
	// zipf head the controller is supposed to sense) and defaults to a
	// smaller fleet on a leaner per-shard topology: static placement
	// must be edge-bound on the hot shard (the failure the controller
	// fixes) without pushing every request past the timeout cliff,
	// where grant latency is censored and the comparison lies.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *mode == "transports" && !set["hold"] {
		*hold = 0
	}
	if *mode == "hotkey" {
		if !set["pair"] {
			*pair = 0
		}
		if !set["topology"] {
			*topology = "ring"
		}
		if !set["n"] {
			*n = 6
		}
		if !set["clients"] {
			*clients = 48
		}
	}

	g, err := buildTopology(*topology, *n, *rows, *cols)
	if err != nil {
		fail(err)
	}
	base := loadOpts{
		clients:  *clients,
		duration: *duration,
		hold:     *hold,
		timeout:  *timeout,
		pair:     *pair,
		span:     *span,
		seed:     *seed,
		keys:     *keys,
	}
	cfg := lockservice.Config{Graph: g, Seed: *seed, TickEvery: *tick}

	// Per-mode defaults for -shards (one count everywhere but the sweep)
	// and -out.
	def, ok := map[string][2]string{
		"transports": {"4", "BENCH_wire.json"},
		"shards":     {"1,2,4", "BENCH_shard.json"},
		"hotkey":     {"4", "BENCH_hotkey.json"},
		"failover":   {"2", "BENCH_failover.json"},
	}[*mode]
	if !ok {
		fail(fmt.Errorf("unknown -mode %q (want transports, shards, failover, or hotkey)", *mode))
	}
	if *shardsCSV == "" {
		*shardsCSV = def[0]
	}
	if *out == "" {
		*out = def[1]
	}
	counts, err := parseShardCounts(*shardsCSV)
	if err != nil {
		fail(err)
	}
	if *mode != "shards" && len(counts) != 1 {
		fail(fmt.Errorf("%s mode measures one shard count, got -shards %q", *mode, *shardsCSV))
	}
	bo := bench.Options{Warmup: *warmup, MaxSamples: *samples, TargetCV: *cv}
	switch *mode {
	case "transports":
		benchTransports(g, counts[0], base, cfg, bo, *wireConns, *out, *compare, *tolerance)
	case "shards":
		benchShards(g, counts, base, cfg, *tick, *corePath, *out)
	case "hotkey":
		if *skew <= 1 {
			fail(fmt.Errorf("-skew must be > 1 for the hotkey zipf draws (got %g)", *skew))
		}
		base.dist = distOpts{dist: "zipf", skew: *skew}
		benchHotkey(g, counts[0], base, cfg, bo, *cores, *out, *compare, *tolerance)
	case "failover":
		benchFailover(g, counts[0], *replicas, *kills, base, cfg, *out)
	}
}

// benchHotkey measures what the feedback controller recovers under a
// hot-key workload: the identical seeded zipf swarm against two
// routers — static placement versus closed-loop rebalancing — with
// the same adaptive CV discipline as the transports mode. The catalog
// is built once per stage from the pre-override ring, so key
// popularity is a pure function of zipf rank and the hot head
// colocates on one shard by construction; the controller's overrides
// change placement, never the workload. GOMAXPROCS pins to -cores
// (default 1) so any win is load balance, not shard parallelism.
func benchHotkey(g *graph.Graph, shards int, o loadOpts, base lockservice.Config, bo bench.Options, cores int, out, compare string, tolerance float64) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	fmt.Printf("bench: hotkey over %d-shard %s on %d core(s), %d clients, zipf s=%g over %d keys, %v per sample (warmup %d, <=%d samples, cv target %.2f)\n",
		shards, g.Name(), cores, o.clients, o.dist.skew, o.keys, o.duration, bo.Warmup, bo.MaxSamples, bo.TargetCV)

	// measure runs one stage: a fresh router (so no overrides leak
	// between stages), the zipf swarm sampled until the CV settles, and
	// a paired p99 series drawn from the same kept samples.
	measure := func(name string, rebalance *control.Config) (grants, p99 *bench.Series, m *lockservice.RouterMetrics) {
		svc := startService(lockservice.RouterConfig{Shards: shards, Base: base, Rebalance: rebalance}, "127.0.0.1:0", "", wire.ServerConfig{})
		defer svc.close(10 * time.Second)
		cat := svc.catalog(o.keys)

		var p99s []float64
		run := func(iteration int) (float64, error) {
			lo := o
			lo.addr = svc.url
			lo.transport = "http"
			lo.seed = o.seed + int64(iteration)*1000003
			ctx, cancel := context.WithTimeout(context.Background(), o.duration+30*time.Second)
			defer cancel()
			res := runLoad(ctx, cat, lo)
			if f := res.failures.Load(); f > 0 {
				fmt.Printf("bench:   warning: %d unclassified failures in %s stage\n", f, name)
			}
			if iteration >= bo.Warmup {
				p99s = append(p99s, quantileMS(res.overall, 0.99))
			}
			return float64(res.grants.Load()) / o.duration.Seconds(), nil
		}
		opts := bo
		opts.Progress = progress(name)
		series, err := bench.Run(name, "grants/s", opts, run)
		if err != nil {
			fail(err)
		}
		p99 = &bench.Series{Name: name + "_p99", Unit: "ms", Samples: p99s}
		p99.Summarize()
		return series, p99, svc.rt.Metrics()
	}

	staticSeries, staticP99, _ := measure("static", nil)
	ctlSeries, ctlP99, m := measure("controller", &control.Config{
		Interval:   100 * time.Millisecond,
		HalfLife:   500 * time.Millisecond,
		Hysteresis: 1.2,
		MaxMoves:   2,
		TopK:       24,
		MinLoad:    64,
		Cooldown:   3 * time.Second,
	})
	fmt.Printf("bench: controller moved %d key(s) (%d aborted, %d fence bounces)\n",
		m.Rebalances.Load(), m.RebalancesAborted.Load(), m.MigrationFences.Load())

	file := &bench.File{
		Schema:        bench.SchemaVersion,
		GeneratedUnix: time.Now().Unix(),
		Fingerprint:   bench.CurrentFingerprint(),
		Config: map[string]any{
			"mode":       "hotkey",
			"topology":   g.Name(),
			"shards":     shards,
			"cores":      cores,
			"keys":       o.keys,
			"clients":    o.clients,
			"duration_s": o.duration.Seconds(),
			"tick_us":    base.TickEvery.Microseconds(),
			"hold_ms":    float64(o.hold.Microseconds()) / 1000,
			"zipf_skew":  o.dist.skew,
			"seed":       o.seed,
			"timeout_ms": o.timeout.Milliseconds(),
		},
		Results: []bench.Series{*staticSeries, *ctlSeries, *staticP99, *ctlP99},
		Ratios:  map[string]float64{},
	}
	if staticSeries.Mean > 0 {
		file.Ratios["controller_vs_static"] = ctlSeries.Mean / staticSeries.Mean
	}
	if ctlP99.Mean > 0 {
		// Higher is better (static p99 over controller p99): >= 1 means
		// the controller's tail is no worse than static's.
		file.Ratios["p99_static_vs_controller"] = staticP99.Mean / ctlP99.Mean
	}
	fmt.Printf("bench: static %.0f grants/s (p99 %.2fms), controller %.0f grants/s (p99 %.2fms), controller/static %.2fx\n",
		staticSeries.Mean, staticP99.Mean, ctlSeries.Mean, ctlP99.Mean, file.Ratios["controller_vs_static"])

	gateOrWrite(file, out, compare, tolerance)
}

// progress prints one line per sample of the named series.
func progress(name string) func(iteration int, warm bool, v float64) {
	return func(iteration int, warm bool, v float64) {
		tag := "sample"
		if warm {
			tag = "warmup"
		}
		fmt.Printf("bench:   %s %s %d: %.0f grants/s\n", name, tag, iteration, v)
	}
}

// gateOrWrite ends a bench.File mode: with a -compare baseline it gates
// the fresh measurement against it (exit 1 on regression), otherwise it
// writes the measurement to out.
func gateOrWrite(file *bench.File, out, compare string, tolerance float64) {
	if compare == "" {
		if err := file.Write(out); err != nil {
			fail(err)
		}
		fmt.Printf("bench: wrote %s\n", out)
		return
	}
	baseline, err := bench.Load(compare)
	if err != nil {
		fail(fmt.Errorf("bench: load baseline: %w", err))
	}
	if bad := bench.Compare(baseline, file, tolerance); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintf(os.Stderr, "bench: REGRESSION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("bench: holds the %s baseline within %.0f%%\n", compare, tolerance*100)
}

// benchTransports measures HTTP vs wire grants/s against one live
// router serving both listeners at once — the same process, lease
// table, and shard ring; only the transport differs.
func benchTransports(g *graph.Graph, shards int, o loadOpts, base lockservice.Config, bo bench.Options, wireConns int, out, compare string, tolerance float64) {
	svc := startService(lockservice.RouterConfig{Shards: shards, Base: base}, "127.0.0.1:0", "127.0.0.1:0", wire.ServerConfig{})
	defer svc.close(10 * time.Second)
	cat := svc.catalog(o.keys)

	fmt.Printf("bench: transports over %d-shard %s, %d clients, %v per sample (warmup %d, <=%d samples, cv target %.2f)\n",
		shards, g.Name(), o.clients, o.duration, bo.Warmup, bo.MaxSamples, bo.TargetCV)

	measure := func(transport, addr string) (*bench.Series, error) {
		run := func(iteration int) (float64, error) {
			lo := o
			lo.addr = addr
			lo.transport = transport
			lo.wireConns = wireConns
			lo.seed = o.seed + int64(iteration)*1000003
			ctx, cancel := context.WithTimeout(context.Background(), o.duration+30*time.Second)
			defer cancel()
			res := runLoad(ctx, cat, lo)
			if f := res.failures.Load(); f > 0 {
				fmt.Printf("bench:   warning: %d unclassified failures over %s\n", f, transport)
			}
			return float64(res.grants.Load()) / o.duration.Seconds(), nil
		}
		opts := bo
		opts.Progress = progress(transport)
		return bench.Run(transport, "grants/s", opts, run)
	}

	httpSeries, err := measure("http", svc.url)
	if err != nil {
		fail(err)
	}
	wireSeries, err := measure("wire", svc.wireAddr)
	if err != nil {
		fail(err)
	}

	file := &bench.File{
		Schema:        bench.SchemaVersion,
		GeneratedUnix: time.Now().Unix(),
		Fingerprint:   bench.CurrentFingerprint(),
		Config: map[string]any{
			"mode":       "transports",
			"topology":   g.Name(),
			"shards":     shards,
			"keys":       o.keys,
			"clients":    o.clients,
			"duration_s": o.duration.Seconds(),
			"tick_us":    base.TickEvery.Microseconds(),
			"hold_ms":    float64(o.hold.Microseconds()) / 1000,
			"pair":       o.pair,
			"seed":       o.seed,
			"timeout_ms": o.timeout.Milliseconds(),
			"wire_conns": wireConns,
		},
		Results: []bench.Series{*httpSeries, *wireSeries},
		Ratios:  map[string]float64{},
	}
	if httpSeries.Mean > 0 {
		file.Ratios["wire_vs_http"] = wireSeries.Mean / httpSeries.Mean
	}
	fmt.Printf("bench: http %.0f grants/s (cv %.3f), wire %.0f grants/s (cv %.3f), wire/http %.2fx\n",
		httpSeries.Mean, httpSeries.CV, wireSeries.Mean, wireSeries.CV, file.Ratios["wire_vs_http"])

	gateOrWrite(file, out, compare, tolerance)
}

// benchShards runs the shard-count scaling sweep into BENCH_shard.json.
func benchShards(g *graph.Graph, counts []int, o loadOpts, cfg lockservice.Config, tick time.Duration, corePath, out string) {
	file := benchFile{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config: benchConfig{
			Topology:  g.Name(),
			Keys:      o.keys,
			Clients:   o.clients,
			DurationS: o.duration.Seconds(),
			TickUS:    tick.Microseconds(),
			HoldMS:    float64(o.hold.Microseconds()) / 1000,
			Pair:      o.pair,
			Span:      o.span,
			Seed:      o.seed,
		},
	}

	byCount := map[int]*benchResult{}
	for _, count := range counts {
		fmt.Printf("bench: %d shard(s), %d clients for %v (tick %v)\n", count, o.clients, o.duration, tick)
		r := benchStage(g, count, o, cfg)
		fmt.Printf("bench:   %.0f grants/s, p50 %.2fms p99 %.2fms (%d grants, %d timeouts)\n",
			r.ThroughputPS, r.P50MS, r.P99MS, r.Grants, r.Timeouts)
		file.ShardSweep = append(file.ShardSweep, *r)
		byCount[count] = r
	}
	if one, four := byCount[1], byCount[4]; one != nil && four != nil && one.ThroughputPS > 0 {
		file.Speedup4v1 = four.ThroughputPS / one.ThroughputPS
		fmt.Printf("bench: 4-shard vs 1-shard throughput: %.2fx (p99 %.2fms vs %.2fms)\n",
			file.Speedup4v1, four.P99MS, one.P99MS)
	}

	if corePath != "" {
		core, err := parseGoBench(corePath)
		if err != nil {
			fail(err)
		}
		file.Core = core
		fmt.Printf("bench: embedded %d core benchmark rows from %s\n", len(core), corePath)
	}

	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("bench: wrote %s\n", out)
}

// benchStage measures one shard count: start a router over real HTTP,
// run the load swarm, tear everything down.
func benchStage(g *graph.Graph, shards int, o loadOpts, base lockservice.Config) *benchResult {
	svc := startService(lockservice.RouterConfig{Shards: shards, Base: base}, "127.0.0.1:0", "", wire.ServerConfig{})
	o.addr = svc.url
	ctx, cancel := context.WithTimeout(context.Background(), o.duration+30*time.Second)
	defer cancel()
	res := runLoad(ctx, svc.catalog(o.keys), o)
	svc.close(10 * time.Second)

	br := &benchResult{
		Shards:        shards,
		Workers:       shards * g.N(),
		Locks:         shards * g.EdgeCount(),
		Grants:        res.grants.Load(),
		ThroughputPS:  float64(res.grants.Load()) / o.duration.Seconds(),
		P50MS:         quantileMS(res.overall, 0.50),
		P90MS:         quantileMS(res.overall, 0.90),
		P99MS:         quantileMS(res.overall, 0.99),
		Timeouts:      res.timeouts.Load(),
		Backpressure:  res.busy.Load(),
		Unserviceable: res.unserviceable.Load(),
		SpanGrants:    res.spanGrants.Load(),
		Failures:      res.failures.Load(),
		PerShardGrant: map[string]int64{},
	}
	var shardIDs []int
	for s := range res.perShard {
		shardIDs = append(shardIDs, s)
	}
	sort.Ints(shardIDs)
	for _, s := range shardIDs {
		br.PerShardGrant[strconv.Itoa(s)] = res.perShard[s].grants.Load()
	}
	return br
}

// parseShardCounts reads "1,2,4" into a sorted-as-given int slice.
func parseShardCounts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, comma-separated)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -shards list")
	}
	return out, nil
}

// parseGoBench reads standard `go test -bench` text output:
//
//	BenchmarkSimStep-8   12345   9876 ns/op   120 B/op   3 allocs/op
func parseGoBench(path string) ([]coreBench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []coreBench
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		cb := coreBench{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				cb.NsPerOp = v
			case "B/op":
				cb.BytesPerOp = v
			case "allocs/op":
				cb.AllocsPerOp = v
			}
		}
		out = append(out, cb)
	}
	return out, sc.Err()
}
