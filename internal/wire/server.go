package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/msgpass"
	"mcdp/internal/stats"
)

// ServerConfig tunes a wire listener.
type ServerConfig struct {
	// Backend serves the protocol's operations (required).
	Backend Backend
	// Faults, when non-nil, injects frame-level transport faults on the
	// response path: dropped, duplicated, corrupted, and stalled frames
	// (the same chaos.Injector the msgpass substrate uses). Hello
	// frames are exempt so connection setup stays well-defined; every
	// operation response is fair game.
	Faults msgpass.FaultInjector
	// FaultTick is the stall unit for delayed frames (default 1ms).
	FaultTick time.Duration
	// MaxBatch caps how many pending responses coalesce into one frame
	// (default 64).
	MaxBatch int
}

// ServerStats counts a wire listener's traffic (all atomic; read with
// Load).
type ServerStats struct {
	Connections     atomic.Int64
	OpenConnections atomic.Int64
	FramesIn        atomic.Int64
	FramesOut       atomic.Int64
	EntriesIn       atomic.Int64
	EntriesOut      atomic.Int64
	BadFrames       atomic.Int64
	FaultsDropped   atomic.Int64
	FaultsDuplicate atomic.Int64
	FaultsCorrupted atomic.Int64
	FaultsStalled   atomic.Int64
}

// Server accepts framed-binary connections and serves them from a
// Backend. Create with NewServer, then Serve (which blocks); Close
// stops the accept loop and drops live connections.
type Server struct {
	cfg   ServerConfig
	stats ServerStats

	done chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	lns   map[net.Listener]struct{} // guarded by mu
	conns map[net.Conn]struct{}     // guarded by mu
}

// NewServer builds a wire server over the backend.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Backend == nil {
		panic("wire: ServerConfig.Backend is required")
	}
	if cfg.FaultTick <= 0 {
		cfg.FaultTick = time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxBatch > MaxEntries {
		cfg.MaxBatch = MaxEntries
	}
	return &Server{
		cfg:   cfg,
		done:  make(chan struct{}),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Stats exposes the listener's traffic counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Serve accepts connections on ln until Close; it returns nil on a
// clean shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.stats.Connections.Add(1)
		s.stats.OpenConnections.Add(1)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Close stops accepting, drops live connections, and waits for the
// per-connection goroutines to drain. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	for ln := range s.lns {
		ln.Close()
		delete(s.lns, ln)
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// dropConn unregisters and closes one connection.
func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.stats.OpenConnections.Add(-1)
	}
	s.mu.Unlock()
	c.Close()
}

// serveConn runs one connection: hello handshake, then a reader that
// dispatches operations and a writer that coalesces responses into
// batched frames.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	br := bufio.NewReaderSize(c, 1<<16)

	// Handshake: the client speaks first; a version mismatch or any
	// other frame type is a protocol error.
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, hello, err := ReadFrame(br)
	if err != nil || typ != TypeHello || len(hello) != 1 || hello[0].Proto != ProtoVersion {
		if errors.Is(err, ErrBadFrame) {
			s.stats.BadFrames.Add(1)
		}
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	resp := AppendFrame(nil, TypeHello, []Msg{{
		Corr: hello[0].Corr, Proto: ProtoVersion, RingGen: s.cfg.Backend.RingGen(),
		TimeoutMS: uint32(s.cfg.Backend.WaitBudget().Milliseconds()),
	}})
	if _, err := c.Write(resp); err != nil {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Msg, 256)
	// inflight counts operations read off the connection whose responses
	// the writer has not yet put in a frame.
	var inflight atomic.Int64
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeLoop(c, out, &inflight, cancel)
	}()
	var opWG sync.WaitGroup
	defer func() {
		// Order matters: cancel first, so any send() blocked on a full
		// out channel (the writer may already be dead) unblocks via
		// ctx.Done; then wait out the op goroutines so nothing can send
		// after close; only then close out so a live writer drains what
		// remains and exits.
		cancel()
		opWG.Wait()
		close(out)
		writerWG.Wait()
	}()
	for {
		typ, entries, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				s.stats.BadFrames.Add(1)
			}
			return
		}
		s.stats.FramesIn.Add(1)
		s.stats.EntriesIn.Add(int64(len(entries)))
		inflight.Add(int64(len(entries)))
		for _, m := range entries {
			switch typ {
			case TypeAcquire:
				// Acquires block until grant or rejection; each gets its
				// own goroutine so one contended lock cannot head-of-line
				// block the connection. m goes by value, so the entries
				// the reader serves inline never move to the heap.
				opWG.Add(1)
				go func(m Msg) {
					defer opWG.Done()
					s.send(ctx, out, s.doAcquire(ctx, m))
				}(m)
			case TypeRelease:
				s.send(ctx, out, s.doRelease(ctx, m))
			case TypeRenew:
				s.send(ctx, out, s.doRenew(ctx, m))
			case TypePing:
				s.send(ctx, out, Msg{Type: TypePong, Corr: m.Corr})
			default:
				// Response types from a client: the stream is confused.
				s.stats.BadFrames.Add(1)
				return
			}
		}
	}
}

// send enqueues one response unless the connection is going away. A
// queue with room takes it without a select over the connection's
// shared context.
func (s *Server) send(ctx context.Context, out chan<- Msg, m Msg) {
	select {
	case out <- m:
		return
	default:
	}
	select {
	case out <- m:
	case <-ctx.Done():
	}
}

func (s *Server) doAcquire(ctx context.Context, m Msg) Msg {
	g, err := s.cfg.Backend.Acquire(ctx, AcquireReq{
		Resources: m.Resources,
		Timeout:   time.Duration(m.TimeoutMS) * time.Millisecond,
		TTL:       time.Duration(m.TTLMS) * time.Millisecond,
		RingGen:   m.RingGen,
	})
	if err != nil {
		return errMsg(m.Corr, err)
	}
	return Msg{
		Type: TypeGrant, Corr: m.Corr, Session: g.Session,
		Node: uint16(g.Node), WaitUS: uint64(g.Wait.Microseconds()),
	}
}

func (s *Server) doRelease(ctx context.Context, m Msg) Msg {
	if err := s.cfg.Backend.Release(ctx, m.Session); err != nil {
		return errMsg(m.Corr, err)
	}
	return Msg{Type: TypeReleased, Corr: m.Corr}
}

func (s *Server) doRenew(ctx context.Context, m Msg) Msg {
	ttl, err := s.cfg.Backend.Renew(ctx, m.Session, time.Duration(m.TTLMS)*time.Millisecond)
	if err != nil {
		return errMsg(m.Corr, err)
	}
	return Msg{Type: TypeRenewed, Corr: m.Corr, RemainingMS: uint32(ttl.Milliseconds())}
}

// errMsg renders a backend error as a wire error entry. Text is
// truncated to the protocol bound: backend error strings are
// uncontrolled, and an oversize one must degrade to a shorter message,
// not panic the connection's writer.
func errMsg(corr uint64, err error) Msg {
	e := asWireError(err)
	text := e.Text
	if len(text) > maxStringLen {
		text = text[:maxStringLen]
	}
	return Msg{Type: TypeError, Corr: corr, Code: e.Code, Text: text, RingGen: e.RingGen}
}

// writeLoop drains responses, coalescing whatever is pending — and, while
// other operations are in flight on the connection, whatever one
// scheduler yield lets complete (coalesce) — up to MaxBatch into one
// write: entries are split into per-type, size-bounded frame groups
// (frameGroups), each group encoded as one batched frame, faults applied
// per frame. On exit — error or out closed — it cancels the connection
// context so blocked send()s (the reader's synchronous ops, parked
// acquire goroutines) unwedge instead of filling out forever behind a
// dead writer.
func (s *Server) writeLoop(c net.Conn, out <-chan Msg, inflight *atomic.Int64, cancel context.CancelFunc) {
	defer cancel()
	batch := make([]Msg, 0, s.cfg.MaxBatch)
	var buf []byte
	var groups [][]Msg
	for {
		first, ok := <-out
		if !ok {
			return
		}
		batch = coalesce(append(batch[:0], first), out, s.cfg.MaxBatch, inflight)
		inflight.Add(-int64(len(batch)))
		buf = buf[:0]
		groups = frameGroups(groups[:0], batch)
		for _, group := range groups {
			if s.cfg.Faults == nil {
				buf = AppendFrame(buf, group[0].Type, group)
			} else {
				// The injector may keep, grow or replace the frame it is
				// handed, so each one is built on its own.
				frame, skip := s.applyFaults(AppendFrame(nil, group[0].Type, group))
				if skip {
					continue
				}
				buf = append(buf, frame...)
			}
			s.stats.FramesOut.Add(1)
			s.stats.EntriesOut.Add(int64(len(group)))
		}
		if len(buf) == 0 {
			continue
		}
		if _, err := c.Write(buf); err != nil {
			s.dropConn(c)
			return
		}
	}
}

// applyFaults runs one encoded frame through the chaos injector:
// dropped frames are skipped, duplicates appended, corruption flips
// bits in a copy (the CRC turns that into a client-side connection
// drop), and stalls sleep the writer — the whole connection stalls,
// which is what a stalled TCP stream looks like. The write loop calls it
// only when an injector is configured.
func (s *Server) applyFaults(frame []byte) ([]byte, bool) {
	d := s.cfg.Faults.Decide(0, 0, 0)
	if d.DelayTicks > 0 {
		s.stats.FaultsStalled.Add(1)
		time.Sleep(time.Duration(d.DelayTicks) * s.cfg.FaultTick)
	}
	if d.Drop {
		s.stats.FaultsDropped.Add(1)
		return nil, true
	}
	if d.CorruptBits != 0 {
		s.stats.FaultsCorrupted.Add(1)
		frame = corruptFrame(frame, d.CorruptBits)
	}
	if d.Duplicates > 0 {
		s.stats.FaultsDuplicate.Add(1)
		dup := frame
		for i := 0; i < d.Duplicates; i++ {
			frame = append(frame, dup[:len(dup)]...)
		}
	}
	return frame, false
}

// corruptFrame flips one byte of a frame copy, position and mask both
// drawn from the injector's bits (mask forced non-zero so the flip is
// real).
func corruptFrame(frame []byte, bits uint64) []byte {
	out := append([]byte(nil), frame...)
	pos := int(bits % uint64(len(out)))
	mask := byte(bits >> 32)
	if mask == 0 {
		mask = 1
	}
	out[pos] ^= mask
	return out
}

// Register declares the listener's traffic series in t, the metrics
// table of the service it fronts, so that service's /metrics scrape
// covers the wire transport too. Call it once, right after NewServer.
func (s *Server) Register(t *stats.Families) { t.Register(s.families) }

func (s *Server) families() []stats.Family {
	st := &s.stats
	return []stats.Family{
		stats.Counter("dinerd_wire_connections_total", "Wire connections accepted.", st.Connections.Load),
		stats.Counter("dinerd_wire_frames_in_total", "Wire frames received.", st.FramesIn.Load),
		stats.Counter("dinerd_wire_frames_out_total", "Wire frames sent.", st.FramesOut.Load),
		stats.Counter("dinerd_wire_entries_in_total", "Wire operations received (batch entries).", st.EntriesIn.Load),
		stats.Counter("dinerd_wire_entries_out_total", "Wire responses sent (batch entries).", st.EntriesOut.Load),
		stats.Counter("dinerd_wire_bad_frames_total", "Frames rejected for bad magic, framing, or CRC.", st.BadFrames.Load),
		stats.Counter("dinerd_wire_faults_dropped_total", "Response frames dropped by the chaos injector.", st.FaultsDropped.Load),
		stats.Counter("dinerd_wire_faults_duplicated_total", "Response frames duplicated by the chaos injector.", st.FaultsDuplicate.Load),
		stats.Counter("dinerd_wire_faults_corrupted_total", "Response frames corrupted by the chaos injector.", st.FaultsCorrupted.Load),
		stats.Counter("dinerd_wire_faults_stalled_total", "Response frames stalled by the chaos injector.", st.FaultsStalled.Load),
		stats.Gauge("dinerd_wire_open_connections", "Currently open wire connections.", func() float64 { return float64(st.OpenConnections.Load()) }),
	}
}
