package msgpass

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
)

// This file puts the Section 4 transformation on real sockets: the same
// node logic and K-state protocol, with frames traveling over one TCP
// connection per edge on localhost instead of the event loop's queue. The
// protocol needs nothing from the transport beyond best effort — frames
// are full-state gossip retransmitted every tick, so connection drops,
// write failures, and in-flight losses only delay convergence. That is
// what makes wiring a stabilizing protocol to a real network this short.
//
// Edges self-heal: whenever an edge's socket dies (peer restart, sever,
// or any I/O error), the low endpoint's side redials with capped backoff
// until the connection is back, and the acceptor keeps accepting for the
// transport's whole lifetime. Node restarts sever the node's sockets
// first (a revived process has fresh connections in any real
// deployment), so Network.Restart exercises the full reconnect path.

// wireFrame is the gob-encoded form of a message.
type wireFrame struct {
	EdgeIdx  int
	From     int32
	Counter  uint8
	State    uint8
	Depth    int32
	Priority int32
}

func toWire(m message) wireFrame {
	return wireFrame{
		EdgeIdx:  m.edgeIdx,
		From:     int32(m.from),
		Counter:  m.counter,
		State:    uint8(m.state),
		Depth:    int32(m.depth),
		Priority: int32(m.priority),
	}
}

func fromWire(w wireFrame) message {
	return message{
		edgeIdx:  w.EdgeIdx,
		from:     graph.ProcID(w.From),
		counter:  w.Counter,
		state:    core.State(w.State),
		depth:    int(w.Depth),
		priority: graph.ProcID(w.Priority),
	}
}

// redial backoff bounds: first retry after redialBase, doubling to
// redialMax while the peer's listener is unreachable.
const (
	redialBase = 2 * time.Millisecond
	redialMax  = 100 * time.Millisecond
)

// tcpTransport owns the listeners and per-edge connections.
type tcpTransport struct {
	nw        *Network
	addrs     []string // per-node listener addresses (immutable after setup)
	listeners []net.Listener

	mu        sync.Mutex
	conns     map[int]map[graph.ProcID]*tcpConn // edge index -> sender -> conn; guarded by mu
	redialing map[int]bool                      // edges with an in-flight redial loop; guarded by mu
	done      bool                              // guarded by mu
}

// tcpConn is one direction of an edge's socket with its encoder.
type tcpConn struct {
	c   net.Conn
	enc *gob.Encoder // guarded by mu
	mu  sync.Mutex
}

// NewTCPNetwork builds a Network whose frames travel over real TCP
// connections on localhost — one listener per node, one connection per
// edge, gob-framed. The returned network behaves exactly like the
// in-process one (Start/Stop/Kill/Restart/CrashMaliciously/Eats/...);
// Stop also tears the sockets down. Loss injection, fault injection,
// and partitions apply before the transport, so they compose.
func NewTCPNetwork(cfg Config) (*Network, error) {
	nw := NewNetwork(cfg)
	tr := &tcpTransport{
		nw:        nw,
		conns:     make(map[int]map[graph.ProcID]*tcpConn),
		redialing: make(map[int]bool),
	}
	g := cfg.Graph

	// One listener per node.
	tr.addrs = make([]string, g.N())
	for p := 0; p < g.N(); p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("msgpass: listen for node %d: %w", p, err)
		}
		tr.listeners = append(tr.listeners, ln)
		tr.addrs[p] = ln.Addr().String()
		nw.wg.Add(1)
		go tr.acceptLoop(ln)
	}

	// The low endpoint of each edge dials the high endpoint's listener
	// and announces the edge index; both directions share the socket.
	for i, e := range g.Edges() {
		c, err := net.Dial("tcp", tr.addrs[e.B])
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("msgpass: dial edge %v: %w", e, err)
		}
		enc := gob.NewEncoder(c)
		if err := enc.Encode(handshakeFrame{EdgeIdx: i}); err != nil {
			tr.close()
			return nil, fmt.Errorf("msgpass: handshake edge %v: %w", e, err)
		}
		tr.register(i, e.A, &tcpConn{c: c, enc: enc})
		// The low endpoint reads the high endpoint's frames from the
		// same socket; when the socket dies it owns redialing the edge.
		nw.wg.Add(1)
		go tr.readLoop(i, e.A, c)
	}

	nw.transport = tr.send
	nw.onStop = tr.close
	nw.onRestart = tr.sever
	return nw, nil
}

// handshakeFrame announces which edge a freshly dialed connection serves.
type handshakeFrame struct {
	EdgeIdx int
}

// register records the connection a sender uses for an edge, closing any
// stale predecessor.
func (tr *tcpTransport) register(edgeIdx int, sender graph.ProcID, c *tcpConn) {
	tr.mu.Lock()
	if tr.conns[edgeIdx] == nil {
		tr.conns[edgeIdx] = make(map[graph.ProcID]*tcpConn)
	}
	old := tr.conns[edgeIdx][sender]
	tr.conns[edgeIdx][sender] = c
	tr.mu.Unlock()
	if old != nil {
		_ = old.c.Close()
	}
}

// deregister drops the sender's conn for an edge iff it is still the
// registered one (a redial may already have replaced it).
func (tr *tcpTransport) deregister(edgeIdx int, sender graph.ProcID, c *tcpConn) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if byEdge := tr.conns[edgeIdx]; byEdge != nil && byEdge[sender] == c {
		delete(byEdge, sender)
	}
}

// acceptLoop accepts connections on one node's listener for the
// transport's whole lifetime, so severed edges can reconnect.
func (tr *tcpTransport) acceptLoop(ln net.Listener) {
	defer tr.nw.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed during Stop
		}
		dec := gob.NewDecoder(c)
		var hs handshakeFrame
		if err := dec.Decode(&hs); err != nil {
			_ = c.Close()
			continue
		}
		if hs.EdgeIdx < 0 || hs.EdgeIdx >= tr.nw.cfg.Graph.EdgeCount() {
			_ = c.Close()
			continue
		}
		e := tr.nw.cfg.Graph.Edges()[hs.EdgeIdx]
		// The accepting side (the high endpoint) writes its frames for
		// this edge over the same socket and keeps reading the dialer's.
		conn := &tcpConn{c: c, enc: gob.NewEncoder(c)}
		tr.register(hs.EdgeIdx, e.B, conn)
		tr.nw.wg.Add(1)
		go tr.pumpAccepted(hs.EdgeIdx, conn, dec)
	}
}

// readLoop decodes frames arriving for the dialer-side receiver; when
// the socket dies, it schedules the edge's redial.
func (tr *tcpTransport) readLoop(edgeIdx int, receiver graph.ProcID, c net.Conn) {
	defer tr.nw.wg.Done()
	tr.pump(receiver, gob.NewDecoder(c))
	_ = c.Close() // see pump
	e := tr.nw.cfg.Graph.Edges()[edgeIdx]
	tr.mu.Lock()
	if byEdge := tr.conns[edgeIdx]; byEdge != nil {
		if conn := byEdge[e.A]; conn != nil && conn.c == c {
			delete(byEdge, e.A)
		}
	}
	tr.mu.Unlock()
	tr.scheduleRedial(edgeIdx)
}

// pumpAccepted decodes frames on an accepted socket; the dialer side
// owns reconnection, so on death it only deregisters its conn.
func (tr *tcpTransport) pumpAccepted(edgeIdx int, conn *tcpConn, dec *gob.Decoder) {
	defer tr.nw.wg.Done()
	e := tr.nw.cfg.Graph.Edges()[edgeIdx]
	tr.pump(e.B, dec)
	_ = conn.c.Close() // see pump
	tr.deregister(edgeIdx, e.B, conn)
}

// pump hands decoded frames to the event loop until the socket dies or
// its stream stops decoding. The caller then closes the socket: one that
// nobody reads would fill up and block the event loop's next write to it,
// where a closed one fails the write and gets the edge redialed.
func (tr *tcpTransport) pump(receiver graph.ProcID, dec *gob.Decoder) {
	for {
		var wf wireFrame
		if err := dec.Decode(&wf); err != nil {
			return // connection closed or corrupted: gossip re-heals
		}
		m := fromWire(wf)
		if m.edgeIdx < 0 || m.edgeIdx >= tr.nw.cfg.Graph.EdgeCount() {
			continue // garbage frame
		}
		tr.nw.inject(receiver, m)
	}
}

// scheduleRedial starts one redial loop for the edge unless the
// transport is closing or a redial is already in flight.
func (tr *tcpTransport) scheduleRedial(edgeIdx int) {
	tr.mu.Lock()
	if tr.done || tr.redialing[edgeIdx] {
		tr.mu.Unlock()
		return
	}
	tr.redialing[edgeIdx] = true
	tr.nw.wg.Add(1)
	tr.mu.Unlock()
	go tr.redial(edgeIdx)
}

// redial re-establishes one edge's socket with capped exponential
// backoff, then restarts the dialer-side read loop. It gives up only
// when the transport shuts down.
func (tr *tcpTransport) redial(edgeIdx int) {
	defer tr.nw.wg.Done()
	e := tr.nw.cfg.Graph.Edges()[edgeIdx]
	backoff := redialBase
	for {
		tr.mu.Lock()
		closed := tr.done
		tr.mu.Unlock()
		if closed {
			tr.clearRedialing(edgeIdx)
			return
		}
		c, err := net.DialTimeout("tcp", tr.addrs[e.B], 250*time.Millisecond)
		if err == nil {
			enc := gob.NewEncoder(c)
			if err := enc.Encode(handshakeFrame{EdgeIdx: edgeIdx}); err == nil {
				tr.mu.Lock()
				if tr.done {
					tr.mu.Unlock()
					_ = c.Close()
					tr.clearRedialing(edgeIdx)
					return
				}
				tr.redialing[edgeIdx] = false
				tr.nw.wg.Add(1)
				tr.mu.Unlock()
				tr.register(edgeIdx, e.A, &tcpConn{c: c, enc: enc})
				tr.nw.reconnects.Add(1)
				go tr.readLoop(edgeIdx, e.A, c)
				return
			}
			_ = c.Close()
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// clearRedialing drops the in-flight marker for an edge.
func (tr *tcpTransport) clearRedialing(edgeIdx int) {
	tr.mu.Lock()
	tr.redialing[edgeIdx] = false
	tr.mu.Unlock()
}

// sever closes every socket incident to node p — the transport-level
// face of a node restart. The surviving read loops notice and redial,
// so the edges come back with fresh connections.
func (tr *tcpTransport) sever(p graph.ProcID) {
	g := tr.nw.cfg.Graph
	var victims []*tcpConn
	tr.mu.Lock()
	for _, i := range g.IncidentEdgeIndices(p) {
		byEdge := tr.conns[i]
		if byEdge == nil {
			continue
		}
		e := g.Edges()[i]
		for _, sender := range [2]graph.ProcID{e.A, e.B} {
			if c := byEdge[sender]; c != nil {
				victims = append(victims, c)
				delete(byEdge, sender)
			}
		}
	}
	tr.mu.Unlock()
	for _, c := range victims {
		_ = c.c.Close()
	}
}

// send writes the frame on the sender's socket for that edge.
func (tr *tcpTransport) send(to graph.ProcID, m message) bool {
	tr.mu.Lock()
	byEdge := tr.conns[m.edgeIdx]
	var conn *tcpConn
	if byEdge != nil {
		conn = byEdge[m.from]
	}
	closed := tr.done
	tr.mu.Unlock()
	if conn == nil || closed {
		return false
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.enc.Encode(toWire(m)) == nil
}

// close tears down listeners and connections.
func (tr *tcpTransport) close() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return
	}
	tr.done = true
	for _, ln := range tr.listeners {
		_ = ln.Close()
	}
	for _, byEdge := range tr.conns {
		for _, c := range byEdge {
			_ = c.c.Close()
		}
	}
}
