package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/core"
	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
	"mcdp/internal/shard"
	"mcdp/internal/sim"
	"mcdp/internal/stats"
	"mcdp/internal/wire"
)

// layerSeed fixes the inputs of the isolated drives: they measure the
// code of one layer, so they do not vary with the run's seed.
const layerSeed = 1

// perOp runs f n times, five times over, and returns the median time of
// one call and its heap allocations: a single pass of a few milliseconds
// reads two or three times slower when the machine stalls inside it.
func perOp(n int, f func()) (ns, allocs float64) {
	const passes = 5
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	var times []float64
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		times = append(times, float64(time.Since(t0))/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return medianIQR(times).Value, float64(ms.Mallocs-m0) / float64(passes*n)
}

// driveLayers calls each layer's public API directly, one caller, no
// service around it, and fills in the per-layer metrics that need no
// workload. What each is expected to move is tabulated in README.md.
func driveLayers(m readings) error {
	driveCodec(m)
	driveRing(m)
	driveSmall(m)
	driveSubstrate(m)
	return driveService(m)
}

// driveCodec encodes and decodes acquire frames of 1 and 16 entries.
func driveCodec(m readings) {
	for _, batch := range []int{1, 16} {
		entries := make([]wire.Msg, batch)
		for i := range entries {
			entries[i] = wire.Msg{
				Type: wire.TypeAcquire, Corr: uint64(i + 1),
				Resources: []string{fmt.Sprintf("res-%06d", i)}, TimeoutMS: 2000, TTLMS: 30000, RingGen: 4,
			}
		}
		var buf []byte
		encNS, encAllocs := perOp(20000, func() { buf = wire.AppendFrame(buf[:0], wire.TypeAcquire, entries) })
		decNS, decAllocs := perOp(20000, func() {
			if _, _, _, err := wire.DecodeFrame(buf); err != nil {
				panic(err) // decoding what AppendFrame just wrote cannot fail
			}
		})
		suffix := fmt.Sprintf(".b%d", batch)
		m["wire.encode_ns_per_entry"+suffix] = reading{Value: encNS / float64(batch)}
		m["wire.decode_ns_per_entry"+suffix] = reading{Value: decNS / float64(batch)}
		m["wire.codec_allocs_per_entry"+suffix] = reading{Value: (encAllocs + decAllocs) / float64(batch)}
	}
}

// driveRing looks keys up on a 4-member ring with 0 and 32 overrides.
func driveRing(m readings) {
	keys := make([]string, catalogKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("res-%06d", i)
	}
	for _, overrides := range []int{0, 32} {
		r := shard.New(layerSeed, 0)
		for s := 0; s < 4; s++ {
			if err := r.Add(s); err != nil {
				panic(err) // fresh ring, distinct members
			}
		}
		for _, k := range keys[:overrides] {
			home, _ := r.Lookup(k)
			if err := r.SetOverride(k, (home+1)%4); err != nil {
				panic(err) // a member other than the key's home is always accepted
			}
		}
		i := 0
		ns, _ := perOp(200000, func() { r.Lookup(keys[i%len(keys)]); i++ })
		m[fmt.Sprintf("shard.lookup_ns.o%d", overrides)] = reading{Value: ns}
	}
}

// driveSmall covers the layers whose unit of work is a single call.
func driveSmall(m readings) {
	g := grid3x3()

	mapper := lockservice.NewResourceMapper(g)
	key := []string{"res-000000"}
	ns, _ := perOp(100000, func() {
		if _, _, err := mapper.MapSession(key); err != nil {
			panic(err) // a single key always maps
		}
	})
	m["lockservice.map_session_ns"] = reading{Value: ns}

	// Submit -> Pump -> Release with an oracle that says every worker is
	// eating: the arbiter's own cost, with no substrate to wait for.
	arb := drinkers.NewArbiter(g, 64)
	bottles, homes, _ := mapper.MapSession(key)
	ns, _ = perOp(100000, func() {
		s, err := arb.Submit(homes[0], bottles)
		if err != nil {
			panic(err) // one session at a time never fills a queue of 64
		}
		arb.Pump(func(graph.ProcID) bool { return true })
		arb.Release(s)
	})
	m["drinkers.cycle_ns"] = reading{Value: ns}

	// One guarded-command step of the paper's Figure 1 in the simulator.
	world := sim.NewWorld(sim.Config{Graph: g, Algorithm: core.NewMCDP(), Seed: layerSeed, DiameterOverride: sim.SafeDepthBound(g)})
	ns, _ = perOp(200000, func() { world.Step() })
	m["sim.step_ns"] = reading{Value: ns}

	// The rebalancing controller is off in all four workloads, so these
	// two are expected to move nothing end to end.
	ctl := control.New(control.Config{Shards: 4})
	i := 0
	ns, _ = perOp(200000, func() { ctl.Observe(i%4, key, time.Millisecond); i++ })
	m["control.observe_ns"] = reading{Value: ns}
	loads := []float64{400, 100, 100, 100}
	hot := make([][]control.KeyLoad, 4)
	for s := range hot {
		for k := 0; k < 16; k++ {
			hot[s] = append(hot[s], control.KeyLoad{Key: fmt.Sprintf("res-%06d", s*16+k), Count: loads[s] / float64(k+2)})
		}
	}
	ns, _ = perOp(20000, func() { control.Decide(loads, hot, func(string) bool { return true }, 1.3, 32, 1) })
	m["control.decide_us"] = reading{Value: ns / 1000}

	hist := stats.NewLatencyHistogram(stats.DefaultLatencyBounds())
	ns, _ = perOp(500000, func() { hist.Observe(0.0014) })
	m["stats.observe_ns"] = reading{Value: ns}
}

// driveSubstrate times the bare diners network the way the lock service
// uses it: one worker is made hungry and woken, and the clock stops at
// its first Eating snapshot. The worker changes every time, as it does
// when requests name different keys: a worker that has just eaten eats
// again within microseconds, one that has been idle waits for gossip.
func driveSubstrate(m readings) {
	g := grid3x3()
	published := make(chan struct{}, 1)
	start := time.Now()
	nw := msgpass.NewNetwork(msgpass.Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Hungry:           make([]bool, g.N()),
		TickEvery:        tickEvery,
		Seed:             layerSeed,
		OnSnapshot: func(graph.ProcID, msgpass.Snapshot) {
			select {
			case published <- struct{}{}:
			default: // one pending nudge is enough: the waiter re-reads the table
			}
		},
	})
	nw.Start()
	defer nw.Stop()
	await := func(p graph.ProcID, want core.State) {
		for nw.Snapshot(p).State != want {
			<-published
		}
	}
	rng := rand.New(rand.NewSource(layerSeed))
	var waits []time.Duration
	for i := 0; i < 300; i++ {
		worker := graph.ProcID(rng.Intn(g.N()))
		t0 := time.Now()
		nw.SetNeeds(worker, true)
		nw.Wake(worker)
		await(worker, core.Eating)
		if i == 0 {
			m["msgpass.first_grant_ms"] = reading{Value: float64(time.Since(start)) / float64(time.Millisecond)}
		}
		waits = append(waits, time.Since(t0))
		nw.SetNeeds(worker, false)
		await(worker, core.Thinking)
	}
	m["msgpass.hungry_to_eat_us_p50"] = reading{Value: percentileOf(waits, 0.5, time.Microsecond), N: len(waits)}
	m["msgpass.hungry_to_eat_us_p99"] = reading{Value: percentileOf(waits, 0.99, time.Microsecond), N: len(waits)}
}

// driveService calls Server and Router directly, no wire: one caller
// acquiring and releasing the same key, so its worker is still inside
// its eating window and nothing waits for the substrate — what is left is
// the service's own code. The Router has one shard, so it sits on the
// same substrate as the Server and the difference is the router's cost;
// Router with one standby minus Router with none is the cost of the
// replication acknowledgement (no workload replicates yet, so this is
// only a baseline for a change that does).
func driveService(m readings) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	base := lockservice.Config{Graph: grid3x3(), Seed: layerSeed, TickEvery: tickEvery}
	key := []string{"res-000000"}
	const cycles = 5000
	cycleP50 := func(acquire func() (string, error), release func(string) error) (float64, error) {
		ds := make([]time.Duration, 0, cycles)
		for i := 0; i < cycles; i++ {
			t0 := time.Now()
			session, err := acquire()
			if err != nil {
				return 0, err
			}
			if err := release(session); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0))
		}
		return percentileOf(ds, 0.5, time.Microsecond), nil
	}

	srv := lockservice.NewServer(base)
	srv.Start()
	serverP50, err := cycleP50(func() (string, error) {
		g, err := srv.Acquire(ctx, key, 0)
		if err != nil {
			return "", err
		}
		return g.SessionID, nil
	}, srv.Release)
	srv.Stop(ctx)
	if err != nil {
		return fmt.Errorf("Server.Acquire/Release in process: %w", err)
	}
	m["lockservice.server_inproc_us_p50"] = reading{Value: serverP50, N: cycles}

	var routerP50 [2]float64
	for replicas := range routerP50 {
		rt := lockservice.NewRouter(lockservice.RouterConfig{Shards: 1, Base: base, Replicas: replicas})
		rt.Start()
		routerP50[replicas], err = cycleP50(func() (string, error) {
			g, err := rt.Acquire(ctx, key, 0, 0)
			if err != nil {
				return "", err
			}
			return g.SessionID, nil
		}, rt.Release)
		rt.Stop(ctx)
		if err != nil {
			return fmt.Errorf("Router.Acquire/Release in process, %d replicas: %w", replicas, err)
		}
	}
	m["lockservice.router_inproc_us_p50"] = reading{Value: routerP50[0], N: cycles}
	m["lockservice.repl_ack_us_p50"] = reading{Value: routerP50[1] - routerP50[0], N: cycles}
	return nil
}
