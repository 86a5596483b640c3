package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// setupRounds is how many times a run builds the service from nothing to
// ready; the last instance serves the run.
const setupRounds = 15

// serviceSeed is the service's own Config.Seed: it fixes key placement
// on the ring and the substrate's random streams. It is part of the
// system under test, not of the workload, so -seed does not touch it: ten
// seeds that each reshuffled 512 keys over 4 shards moved saturate's
// throughput by 6 % and its p50 by 22 %, against 3 % and 6 % between runs
// of one placement.
const serviceSeed = 1

// procs is the sizing rule: the service and its load generator share one
// process, so threads and wire connections never outnumber the cores.
func procs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// service is the real lock service started in-process: a Router over
// its shards, a wire listener on loopback in front of it, and one shared
// wire client.
type service struct {
	rt     *lockservice.Router
	ws     *wire.Server
	served chan error
	cl     *wire.Client
	cat    *catalog
}

// startService builds the service for w and returns once it is ready:
// every shard has granted and released one lock through the wire. wrap,
// when non-nil, decorates the backend the listener serves (the tracer's
// hook).
func startService(w workload, wrap func(wire.Backend) wire.Backend) (*service, error) {
	rt := lockservice.NewRouter(lockservice.RouterConfig{
		Shards: w.shards,
		Base: lockservice.Config{
			Graph:     w.topology(),
			Seed:      serviceSeed,
			TickEvery: tickEvery,
		},
	})
	rt.Start()
	s := &service{rt: rt, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	backend := rt.WireBackend()
	if wrap != nil {
		backend = wrap(backend)
	}
	s.ws = wire.NewServer(wire.ServerConfig{Backend: backend})
	go func() { s.served <- s.ws.Serve(ln) }()
	s.cl = wire.NewClient(ln.Addr().String())
	s.cl.Conns = procs()
	if w.oneConn {
		s.cl.Conns = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.cat = buildCatalog(w, rt)
	for _, keys := range s.cat.byShard {
		g, err := s.cl.Acquire(ctx, keys[:1], acquireTimeout, 0)
		if err == nil {
			err = s.cl.Release(ctx, g.SessionID)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("first grant on %v: %w", keys[:1], err)
		}
	}
	return s, nil
}

// stop tears the service down and waits for its goroutines.
func (s *service) stop() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.ws != nil {
		s.ws.Close()
		<-s.served
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.rt.Stop(ctx)
}

// leasesLeaked counts leases the service still holds; after every client
// has released, anything left is a lease the service lost track of.
func (s *service) leasesLeaked() int {
	n := 0
	for i := 0; i < s.rt.Shards(); i++ {
		n += s.rt.Shard(i).ActiveLeases()
	}
	return n
}

// measureSetup starts and stops the service setupRounds-1 times, then
// starts the instance the run will use, timing each start. A start waits
// for a few substrate ticks, so its time comes in steps of TickEvery and a
// median over rounds jumps between steps from run to run; setup_s is the
// interquartile mean of the rounds, which moves smoothly with the mix of
// steps and still ignores a stalled round.
func measureSetup(w workload, wrap func(wire.Backend) wire.Backend) (*service, reading, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startService(w, wrap)
		if err != nil {
			return nil, reading{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == setupRounds-1 {
			sort.Float64s(secs)
			r := medianIQR(secs)
			r.Value = interquartileMean(secs)
			return s, r, nil
		}
		s.stop()
	}
}
