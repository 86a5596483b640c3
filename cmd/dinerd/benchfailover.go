package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// failoverKill is one measured kill-primary event in BENCH_failover.json.
type failoverKill struct {
	Shard int `json:"shard"`
	// SettledMS is kill to Router.Failover returning: detection,
	// promotion, and lease adoption complete.
	SettledMS float64 `json:"settled_ms"`
	// BlackoutMS is kill to the first client-observed grant on the
	// struck shard — the availability gap a client actually sees.
	BlackoutMS float64 `json:"blackout_ms"`
}

// failoverBenchConfig pins everything the numbers depend on.
type failoverBenchConfig struct {
	Topology     string  `json:"topology_per_shard"`
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Kills        int     `json:"kills"`
	Keys         int     `json:"keyspace"`
	Clients      int     `json:"clients"`
	DurationS    float64 `json:"duration_s_per_stage"`
	TickUS       int64   `json:"tick_us"`
	Seed         int64   `json:"seed"`
	CheckEveryMS float64 `json:"check_every_ms"`
	Misses       int     `json:"misses"`
	CooloffMS    float64 `json:"cooloff_ms"`
}

// failoverBenchFile is the BENCH_failover.json artifact: throughput
// before, during, and after a kill-primary storm, plus the per-kill
// promotion latencies (MTTR) and client-observed blackouts.
type failoverBenchFile struct {
	GeneratedUnix int64               `json:"generated_unix"`
	GoVersion     string              `json:"go_version"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	Config        failoverBenchConfig `json:"config"`
	BeforePS      float64             `json:"grants_per_s_before"`
	DuringPS      float64             `json:"grants_per_s_during"`
	AfterPS       float64             `json:"grants_per_s_after"`
	// DuringOverBefore is the availability quantity: throughput during
	// the kill storm relative to the quiet baseline.
	DuringOverBefore float64        `json:"during_over_before"`
	AfterOverBefore  float64        `json:"after_over_before"`
	Kills            []failoverKill `json:"kills"`
	PromotionP50MS   float64        `json:"promotion_p50_ms"`
	PromotionP99MS   float64        `json:"promotion_p99_ms"`
	MaxBlackoutMS    float64        `json:"max_blackout_ms"`
	// DetectionBoundMS is the structural floor on any blackout:
	// Misses consecutive missed health checks must elapse before the
	// supervisor may promote. A gapped stream adds up to the lease TTL
	// (TTL drain); clean kills should land near this bound instead.
	DetectionBoundMS float64 `json:"detection_bound_ms"`
}

// benchFailover measures the failover MTTR budget: one replicated
// router under steady client load through three equal stages — quiet
// baseline, a kill-primary storm (round-robin over shards that still
// have standbys, spaced past the cool-off), and quiet recovery. Each
// kill goes through Router.Failover (the production supervisor path);
// blackout is measured from the kill to the first successful grant a
// dedicated prober lands on the struck shard.
func benchFailover(g *graph.Graph, shards, replicas, kills int, o loadOpts, base lockservice.Config, out string) {
	if replicas < 1 {
		fail(fmt.Errorf("failover mode needs -replicas >= 1"))
	}
	if kills > shards*replicas {
		kills = shards * replicas // one promotion consumes one standby
	}
	fo := lockservice.FailoverConfig{
		CheckEvery:     10 * time.Millisecond,
		Misses:         2,
		Cooloff:        300 * time.Millisecond,
		AckTimeout:     100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		StaleAfter:     250 * time.Millisecond,
		Logf:           func(format string, args ...any) { fmt.Printf("bench: "+format+"\n", args...) },
	}
	svc := startService(lockservice.RouterConfig{
		Shards: shards, Replicas: replicas, Base: base, Failover: fo,
	}, "127.0.0.1:0", "", wire.ServerConfig{})
	defer svc.close(10 * time.Second)
	rt := svc.rt
	o.addr = svc.url
	cat := svc.catalog(o.keys)
	ctx, cancel := context.WithTimeout(context.Background(), 3*o.duration+60*time.Second)
	defer cancel()

	fmt.Printf("bench: failover over %d x %s shards (%d standbys each), %d clients, %v per stage, %d kills\n",
		shards, g.Name(), replicas, o.clients, o.duration, kills)

	stage := func(name string, seedOffset int64, killer func()) float64 {
		lo := o
		lo.seed = o.seed + seedOffset
		sctx, scancel := context.WithTimeout(ctx, lo.duration+30*time.Second)
		defer scancel()
		done := make(chan struct{})
		if killer != nil {
			go func() { killer(); close(done) }()
		} else {
			close(done)
		}
		res := runLoad(sctx, cat, lo)
		<-done
		ps := float64(res.grants.Load()) / lo.duration.Seconds()
		fmt.Printf("bench:   %s: %.0f grants/s (%d grants, %d failures)\n", name, ps, res.grants.Load(), res.failures.Load())
		return ps
	}

	var measured []failoverKill
	killer := func() {
		// Let the stage's load swarm spin up before the first strike.
		time.Sleep(o.duration / 8)
		next := 0
		for i := 0; i < kills; i++ {
			target := -1
			for s := 0; s < shards; s++ { // round-robin over shards with standbys left
				c := (next + s) % shards
				if rt.ShardInfo(c).Standbys > 0 {
					target = c
					break
				}
			}
			if target == -1 {
				fmt.Println("bench:   standby budget exhausted; ending kill storm early")
				return
			}
			next = target + 1
			killAt := time.Now()
			if err := rt.Failover(target, 15*time.Second); err != nil {
				fail(fmt.Errorf("shard %d never recovered: %w", target, err))
			}
			settled := time.Since(killAt)
			blackout := settled + probeShard(ctx, o.addr, cat, target)
			measured = append(measured, failoverKill{
				Shard:      target,
				SettledMS:  float64(settled.Microseconds()) / 1000,
				BlackoutMS: float64(blackout.Microseconds()) / 1000,
			})
			fmt.Printf("bench:   kill shard %d: settled %v, blackout %v\n",
				target, settled.Round(time.Millisecond), blackout.Round(time.Millisecond))
			time.Sleep(fo.Cooloff + 200*time.Millisecond)
		}
	}

	before := stage("before", 0, nil)
	during := stage("during", 1000003, killer)
	after := stage("after", 2000003, nil)

	promos := rt.Metrics().PromotionDurations()
	file := failoverBenchFile{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config: failoverBenchConfig{
			Topology:     g.Name(),
			Shards:       shards,
			Replicas:     replicas,
			Kills:        kills,
			Keys:         o.keys,
			Clients:      o.clients,
			DurationS:    o.duration.Seconds(),
			TickUS:       base.TickEvery.Microseconds(),
			Seed:         o.seed,
			CheckEveryMS: float64(fo.CheckEvery.Microseconds()) / 1000,
			Misses:       fo.Misses,
			CooloffMS:    float64(fo.Cooloff.Microseconds()) / 1000,
		},
		BeforePS:         before,
		DuringPS:         during,
		AfterPS:          after,
		Kills:            measured,
		DetectionBoundMS: float64((time.Duration(fo.Misses) * fo.CheckEvery).Microseconds()) / 1000,
	}
	if before > 0 {
		file.DuringOverBefore = during / before
		file.AfterOverBefore = after / before
	}
	if len(promos) > 0 {
		file.PromotionP50MS = 1000 * quantileDuration(promos, 0.50).Seconds()
		file.PromotionP99MS = 1000 * quantileDuration(promos, 0.99).Seconds()
	}
	for _, k := range measured {
		if k.BlackoutMS > file.MaxBlackoutMS {
			file.MaxBlackoutMS = k.BlackoutMS
		}
	}

	fmt.Printf("bench: before %.0f, during %.0f, after %.0f grants/s (during/before %.2f); promotion p99 %.1fms, max blackout %.1fms\n",
		before, during, after, file.DuringOverBefore, file.PromotionP99MS, file.MaxBlackoutMS)
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("bench: wrote %s\n", out)
}

// probeShard measures the residual client-visible blackout after a
// promotion settles: acquire/release one key owned by the shard until a
// grant lands, returning how long that took (zero when the first probe
// succeeds — the shard was already serving).
func probeShard(ctx context.Context, addr string, cat *shardCatalog, shard int) time.Duration {
	keys := cat.byShard[shard]
	if len(keys) == 0 {
		return 0
	}
	c := lockservice.NewClient(addr)
	c.MaxAttempts = 1
	_, _ = c.Ring(ctx)
	start := time.Now()
	for ctx.Err() == nil {
		grant, err := c.Acquire(ctx, []string{keys[0]}, 500*time.Millisecond, 0)
		if err == nil {
			_ = c.Release(context.WithoutCancel(ctx), grant.SessionID)
			return time.Since(start)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(start)
}
