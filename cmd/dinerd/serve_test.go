package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// TestServeFlagsRebalanceNeedsShards: serve always builds a router, so
// -rebalance on the default single shard would start a controller with
// nowhere to move keys. It used to be dropped silently (the one-shard
// branch built a bare Server); now it is refused up front.
func TestServeFlagsRebalanceNeedsShards(t *testing.T) {
	if _, _, _, err := serveFlags([]string{"-rebalance"}); err == nil || !strings.Contains(err.Error(), "-shards >= 2") {
		t.Fatalf("-rebalance with one shard: err = %v, want a -shards >= 2 usage error", err)
	}
	if _, _, _, err := serveFlags([]string{"-rebalance", "-shards", "1", "-replicas", "2"}); err == nil {
		t.Fatal("-rebalance with one replicated shard accepted")
	}
	rcfg, _, _, err := serveFlags([]string{"-rebalance", "-shards", "2", "-rebalance-interval", "100ms"})
	if err != nil {
		t.Fatalf("-rebalance -shards 2: %v", err)
	}
	if rcfg.Rebalance == nil || rcfg.Rebalance.Interval.Milliseconds() != 100 || rcfg.Shards != 2 {
		t.Fatalf("rebalance config not carried through: %+v", rcfg)
	}
}

// TestServeFlagsDefaultIsOneShardRouter: no flags describes the old
// single-server deployment — one shard, no standbys, no controller,
// both listeners on their default ports.
func TestServeFlagsDefaultIsOneShardRouter(t *testing.T) {
	rcfg, addr, wireAddr, err := serveFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.Shards != 1 || rcfg.Replicas != 0 || rcfg.Rebalance != nil {
		t.Fatalf("default router config: %+v", rcfg)
	}
	if addr != ":7467" || wireAddr != ":7468" {
		t.Fatalf("default listeners %q / %q", addr, wireAddr)
	}
	if g := rcfg.Base.Graph; g == nil || g.N() != 12 {
		t.Fatalf("default topology is not the 3x4 grid: %v", g)
	}
}

// TestStartServiceBothTransports: the one bring-up helper yields a
// router reachable over HTTP and wire, with the wire listener's series
// in the router's /metrics, and close tears all three down.
func TestStartServiceBothTransports(t *testing.T) {
	rcfg, _, _, err := serveFlags([]string{"-tick", "300us", "-rows", "2", "-cols", "2"})
	if err != nil {
		t.Fatal(err)
	}
	svc := startService(rcfg, "127.0.0.1:0", "127.0.0.1:0", wire.ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	hc := lockservice.NewClient(svc.url)
	wc := wire.NewClient(svc.wireAddr)
	defer wc.Close()
	g, err := wc.Acquire(ctx, []string{"edge:0-1"}, time.Second, 0)
	if err != nil {
		t.Fatalf("wire acquire: %v", err)
	}
	if err := hc.Release(ctx, g.SessionID); err != nil {
		t.Fatalf("HTTP release of the wire grant: %v", err)
	}
	text, err := hc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dinerd_wire_entries_in_total 1", "dinerd_grants_total 1", "dinerd_releases_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if cat := svc.catalog(0); len(cat.keys) != 4 || len(cat.shards) != 1 {
		t.Fatalf("catalog of a one-shard 2x2 grid: %d keys on shards %v", len(cat.keys), cat.shards)
	}

	svc.close(2 * time.Second)
	if _, err := hc.Status(ctx); err == nil {
		t.Fatal("HTTP listener still answering after close")
	}
	if err := wire.NewClient(svc.wireAddr).Ping(ctx); err == nil {
		t.Fatal("wire listener still answering after close")
	}
}
