// Command dinerd runs the malicious-crash diners core as a network
// lock service, and ships its own load generator.
//
// Usage:
//
//	dinerd serve   [-addr :7467] [-wire-addr :7468] [-topology grid] [-shards 4] [-replicas 2] [-rebalance] ...
//	dinerd loadgen [-addr http://127.0.0.1:7467] [-transport http|wire] [-clients 8] [-failover] ...
//	dinerd chaos   [-seed 1] [-duration 15s] [-kills 2] [-churn 1] [-supervise] [-replicas 2] ...
//	dinerd bench   [-mode transports|shards|failover|hotkey] [-out BENCH_wire.json] ...
//
// serve starts the HTTP/JSON API (endpoint table in docs/DINERD.md)
// plus the framed binary wire protocol (see docs/WIRE.md) on
// -wire-addr, both transports fronting the same router: -shards 1
// -replicas 0, the default, is the plain single-arbiter service.
// SIGINT/SIGTERM drain gracefully: in-flight leases get a grace window
// to be released before the diners network stops.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "loadgen":
		loadgen(os.Args[2:])
	case "chaos":
		chaosCmd(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: dinerd serve|loadgen|chaos|bench [flags]\n")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dinerd: %v\n", err)
	os.Exit(1)
}

// serveFlags parses serve's command line into the router it describes
// and the two listen addresses (wireAddr "" disables the wire listener).
func serveFlags(args []string) (rcfg lockservice.RouterConfig, addr, wireAddr string, err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addrF     = fs.String("addr", ":7467", "HTTP listen address")
		wireAddrF = fs.String("wire-addr", ":7468", "framed wire-protocol listen address (empty disables)")
		topology  = fs.String("topology", "grid", "grid|ring|path|torus|complete")
		rows      = fs.Int("rows", 3, "grid/torus rows")
		cols      = fs.Int("cols", 4, "grid/torus cols")
		n         = fs.Int("n", 8, "process count (ring/path/complete)")
		tick      = fs.Duration("tick", time.Millisecond, "substrate gossip tick")
		queue     = fs.Int("queue", 64, "per-worker pending-session queue limit")
		ttl       = fs.Duration("ttl", 30*time.Second, "default lease TTL")
		timeout   = fs.Duration("timeout", 5*time.Second, "default acquire wait budget")
		seed      = fs.Int64("seed", 1, "substrate seed")
		loss      = fs.Float64("loss", 0, "frame loss rate injected into the substrate")
		shards    = fs.Int("shards", 1, "independent arbiter shards fronted by the consistent-hash ring")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per shard on the ring (0 = default)")
		replicas  = fs.Int("replicas", 0, "hot standbys per shard: primaries stream lease deltas to them and the supervisor promotes the freshest on primary failure")
		rebalance = fs.Bool("rebalance", false, "run the hot-key feedback controller: sense per-key load at the grant path and migrate hot keys between shards under the generation protocol")
		rebEvery  = fs.Duration("rebalance-interval", 250*time.Millisecond, "control period of the rebalance loop")
		rebHyst   = fs.Float64("rebalance-hysteresis", 1.3, "imbalance deadband: act only when the hottest shard exceeds this multiple of the mean load")
		rebCool   = fs.Duration("rebalance-cooldown", 2*time.Second, "per-key re-migration floor")
	)
	fs.Parse(args)

	g, err := buildTopology(*topology, *n, *rows, *cols)
	if err != nil {
		return rcfg, "", "", err
	}
	// Each shard is its own diners core over its own copy of the
	// topology; -shards 1 -replicas 0 is the plain single-arbiter service.
	rcfg = lockservice.RouterConfig{
		Shards: *shards, Vnodes: *vnodes, Replicas: *replicas,
		Base: lockservice.Config{
			Graph:          g,
			Seed:           *seed,
			QueueLimit:     *queue,
			DefaultTimeout: *timeout,
			DefaultTTL:     *ttl,
			TickEvery:      *tick,
			LossRate:       *loss,
		},
	}
	if *rebalance {
		if *shards < 2 {
			return rcfg, "", "", fmt.Errorf("-rebalance needs -shards >= 2: the controller migrates hot keys between shards, and one shard leaves it nowhere to move them")
		}
		rcfg.Rebalance = &control.Config{
			Interval:   *rebEvery,
			Hysteresis: *rebHyst,
			Cooldown:   *rebCool,
			Logf:       log.Printf,
		}
	}
	return rcfg, *addrF, *wireAddrF, nil
}

func serve(args []string) {
	rcfg, addr, wireAddr, err := serveFlags(args)
	if err != nil {
		fail(err)
	}
	// Both transports front the same router: the wire listener accepts
	// framed connections while HTTP stays up as the compatibility facade,
	// and one /metrics scrape covers both.
	svc := startService(rcfg, addr, wireAddr, wire.ServerConfig{})
	mode := "static placement"
	if rcfg.Rebalance != nil {
		mode = "rebalance loop every " + rcfg.Rebalance.Interval.String()
	}
	g := rcfg.Base.Graph
	fmt.Printf("dinerd: serving %d x %s (%d workers, %d locks, %d standbys/shard, ring gen %d, %s) on %s\n",
		rcfg.Shards, g.Name(), rcfg.Shards*g.N(), rcfg.Shards*g.EdgeCount(), rcfg.Replicas, svc.rt.RingInfo().Generation, mode, addr)
	if svc.ws != nil {
		fmt.Printf("dinerd: wire protocol on %s\n", svc.wireAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-svc.errc:
		fail(err)
	case <-ctx.Done():
	}
	fmt.Println("dinerd: draining")
	svc.close(10 * time.Second)
	fmt.Println("dinerd: stopped")
}

func buildTopology(kind string, n, rows, cols int) (*graph.Graph, error) {
	switch kind {
	case "grid":
		return graph.Grid(rows, cols), nil
	case "torus":
		return graph.Torus(rows, cols), nil
	case "ring":
		return graph.Ring(n), nil
	case "path":
		return graph.Path(n), nil
	case "complete":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}
