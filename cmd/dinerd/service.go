package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// service is one in-process dinerd: a started Router behind an HTTP
// listener and, optionally, a wire listener — the bring-up every
// subcommand (serve, chaos, bench) shares. close owns the teardown
// order.
type service struct {
	rt       *lockservice.Router
	url      string // HTTP base URL
	wireAddr string // wire listener host:port ("" without one)
	ws       *wire.Server
	http     *http.Server
	// errc reports a listener that died on its own (serve exits on it).
	// Buffered for both listeners so neither goroutine can block on a
	// reader that has already moved on to close.
	errc chan error
}

// startService builds and starts a router from rcfg, serves its HTTP
// surface on addr and — unless wireAddr is empty — the wire protocol on
// wireAddr, the listener's families registered into the router's
// /metrics table. wireCfg carries only the listener's fault knobs; its
// Backend is always this router. A listen failure exits the process:
// no caller can do without its service.
func startService(rcfg lockservice.RouterConfig, addr, wireAddr string, wireCfg wire.ServerConfig) *service {
	s := &service{rt: lockservice.NewRouter(rcfg), errc: make(chan error, 2)}
	s.rt.Start()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	if wireAddr != "" {
		wireLn, err := net.Listen("tcp", wireAddr)
		if err != nil {
			fail(err)
		}
		wireCfg.Backend = s.rt.WireBackend()
		s.ws = wire.NewServer(wireCfg)
		s.ws.Register(s.rt.Families())
		s.wireAddr = wireLn.Addr().String()
		go func() {
			if err := s.ws.Serve(wireLn); err != nil {
				s.errc <- err
			}
		}()
	}
	s.http = &http.Server{Handler: s.rt.Handler()}
	s.url = "http://" + ln.Addr().String()
	go func() {
		if err := s.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.errc <- err
		}
	}()
	return s
}

// catalog builds the load generator's view of the service — the lock
// names of one shard's topology placed on a replica of the live ring —
// over keys synthetic names, or the raw edge names when keys is 0.
func (s *service) catalog(keys int) *shardCatalog {
	info := s.rt.RingInfo()
	return buildCatalog(keys, s.rt.Status().Edges, replicaRing(&info))
}

// close tears the service down front to back — wire listener, HTTP
// listener, then the router's drain — sharing one grace budget.
func (s *service) close(grace time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if s.ws != nil {
		s.ws.Close()
	}
	_ = s.http.Shutdown(ctx)
	s.rt.Stop(ctx)
}
