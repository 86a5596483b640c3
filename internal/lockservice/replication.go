package lockservice

import (
	"bufio"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/coord"
	"mcdp/internal/wire"
)

// Replication op codes carried in wire repl-apply records. Grants and
// renews are the unsafe direction — losing one can resurrect a lock
// somewhere else — so the primary replicates them semi-synchronously
// (the client does not see the grant until every standby acked or the
// link was declared degraded). Releases, expirations, and fences are
// the safe direction: a lost one merely leaves a lease on the standby
// until its TTL drains, which can delay but never violate exclusion.
// Span markers mirror the router's prepare/commit/rollback decisions so
// a promoted standby knows which spans were mid-protocol. Heartbeats
// carry no mutation: Seq echoes the last sequence number the primary
// issued (so the standby can detect enqueue-dropped records) and
// DeadlineUS the latest live lease deadline (the standby's TTL-drain
// bound if records were lost).
const (
	ReplOpGrant byte = iota + 1
	ReplOpRelease
	ReplOpRenew
	ReplOpExpire
	ReplOpFence
	ReplOpSpanPrepare
	ReplOpSpanCommit
	ReplOpSpanRollback
	ReplOpHeartbeat
)

// LeaseEvent is one lease-table mutation as seen by the replication
// tap. Resources is set only for grants; Deadline only for grants and
// renews.
type LeaseEvent struct {
	Op        byte
	ID        string
	Resources []string
	Deadline  time.Time
}

// replBacklog bounds the primary-side record queue per standby. A full
// backlog drops the record (never blocks the serving path); the drop is
// visible to the standby as a heartbeat sequence gap, which forces a
// TTL-drain hold-down if that standby is later promoted.
const replBacklog = 1024

// replWaiter parks one semi-synchronous sender until its record is
// acked.
type replWaiter struct {
	seq uint64
	ch  chan struct{}
}

// replicator is the primary-side half of one replication stream: it
// batches lease-table records into repl-apply frames on conn and tracks
// the standby's acks so grants can block until durable on the replica.
// The stream outlives primaries: after a promotion the new primary
// writes to the same conn under a bumped incarnation.
type replicator struct {
	conn net.Conn
	inc  atomic.Uint64 // incarnation stamped on outgoing records

	seq      atomic.Uint64 // last sequence number issued (including drops)
	acked    atomic.Uint64 // highest sequence acked by the standby
	dropped  atomic.Int64  // records dropped at enqueue (backlog full)
	rejected atomic.Int64  // records the standby refused (stale incarnation)

	// Semi-sync demotion: after degradedAfter consecutive ack-budget
	// misses the stream stops being waited on (a dead standby must not
	// tax every grant forever).
	waitFails atomic.Int32
	degraded  atomic.Bool

	records chan wire.Msg
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex   //lint:order rank lockservice 30
	waiters []replWaiter // guarded by mu
}

// newReplicator starts the sender and ack-reader goroutines for one
// stream. inc is the incarnation of the primary wiring the stream.
func newReplicator(conn net.Conn, inc uint64) *replicator {
	r := &replicator{
		conn:    conn,
		records: make(chan wire.Msg, replBacklog),
		done:    make(chan struct{}),
	}
	r.inc.Store(inc)
	r.wg.Add(2)
	go r.sender()
	go r.ackLoop()
	return r
}

// send enqueues one lease record and returns its sequence number. A
// full backlog drops the record rather than stalling the lease path;
// the gap surfaces on the standby through heartbeat sequence numbers.
func (r *replicator) send(ev LeaseEvent) uint64 {
	seq := r.seq.Add(1)
	m := wire.Msg{
		Type:      wire.TypeReplApply,
		Corr:      seq,
		Seq:       seq,
		Inc:       r.inc.Load(),
		Op:        ev.Op,
		Session:   ev.ID,
		Resources: ev.Resources,
	}
	if !ev.Deadline.IsZero() {
		m.DeadlineUS = uint64(ev.Deadline.UnixMicro())
	}
	select {
	case r.records <- m:
	default:
		r.dropped.Add(1)
	}
	return seq
}

// heartbeat enqueues a liveness record: Seq echoes the last issued
// sequence number (no new number is consumed) and deadlineUS the
// primary's latest live lease deadline. Heartbeats are droppable and
// never acked.
func (r *replicator) heartbeat(deadlineUS uint64) {
	m := wire.Msg{
		Type:       wire.TypeReplApply,
		Seq:        r.seq.Load(),
		Inc:        r.inc.Load(),
		Op:         ReplOpHeartbeat,
		DeadlineUS: deadlineUS,
	}
	select {
	case r.records <- m:
	default:
	}
}

// wait blocks until the standby acks sequence seq, the timeout lapses,
// or the stream closes; it reports whether the ack arrived.
func (r *replicator) wait(seq uint64, timeout time.Duration) bool {
	if r.acked.Load() >= seq {
		return true
	}
	w := replWaiter{seq: seq, ch: make(chan struct{})}
	r.mu.Lock()
	if r.acked.Load() >= seq {
		r.mu.Unlock()
		return true
	}
	r.waiters = append(r.waiters, w)
	r.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return true
	case <-t.C:
		return false
	case <-r.done:
		return false
	}
}

// lag is the primary's view of how far this standby trails: issued
// minus acked records (enqueue drops count — they will never be acked,
// which is exactly the signal a promotion decision needs).
func (r *replicator) lag() uint64 {
	s, a := r.seq.Load(), r.acked.Load()
	if a > s {
		return 0
	}
	return s - a
}

// setInc restamps the stream for a new primary incarnation (promotion
// rewires the tap, not the conn).
func (r *replicator) setInc(inc uint64) { r.inc.Store(inc) }

// sender drains the record queue into batched repl-apply frames.
func (r *replicator) sender() {
	defer r.wg.Done()
	buf := make([]byte, 0, 4096)
	batch := make([]wire.Msg, 0, 64)
	for {
		select {
		case <-r.done:
			return
		case m := <-r.records:
			batch = append(batch[:0], m)
		drain:
			for len(batch) < cap(batch) {
				select {
				case m := <-r.records:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			buf = wire.AppendFrame(buf[:0], wire.TypeReplApply, batch)
			if _, err := r.conn.Write(buf); err != nil {
				return
			}
		}
	}
}

// ackLoop reads repl-ack frames and advances the acked watermark,
// waking blocked semi-synchronous senders.
func (r *replicator) ackLoop() {
	defer r.wg.Done()
	br := bufio.NewReader(r.conn)
	for {
		typ, entries, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if typ != wire.TypeReplAck {
			continue
		}
		for i := range entries {
			if entries[i].Code != 0 {
				r.rejected.Add(1)
				continue
			}
			r.advance(entries[i].Seq)
		}
	}
}

// advance raises the acked watermark to seq and releases every waiter
// at or below it.
func (r *replicator) advance(seq uint64) {
	for {
		cur := r.acked.Load()
		if seq <= cur {
			return
		}
		if r.acked.CompareAndSwap(cur, seq) {
			break
		}
	}
	r.mu.Lock()
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		if w.seq <= seq {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	r.waiters = kept
	r.mu.Unlock()
}

// close tears the stream down and joins both goroutines. Closing the
// conn unblocks the reader and any in-flight write.
func (r *replicator) close() {
	r.once.Do(func() {
		close(r.done)
		r.conn.Close()
	})
	r.wg.Wait()
}

// replLease is a standby's view of one replicated lease.
type replLease struct {
	resources []string
	deadline  time.Time
}

// standby is the receiver half of a replication stream: it applies the
// primary's lease-table deltas to a shadow table on behalf of srv (the
// hot-standby server that will adopt the table if promoted) and acks
// each applied record. Records stamped with an incarnation other than
// the replica set's current one — a deposed primary still writing —
// are refused with code 409.
type standby struct {
	srv    *Server
	curInc func() uint64 // the replica set's live incarnation

	wg sync.WaitGroup

	mu       sync.Mutex           //lint:order rank lockservice 34
	table    map[string]replLease // guarded by mu: replicated lease shadow
	prepared map[string]bool      // guarded by mu: spans prepared but not resolved
	stream   coord.Stream         // guarded by mu: sequence, gap and recency tracking, in unix microseconds
}

// newStandby builds the receiver for srv. curInc must read the replica
// set's current incarnation without locks (it fences stale streams).
func newStandby(srv *Server, curInc func() uint64) *standby {
	return &standby{
		srv:      srv,
		curInc:   curInc,
		table:    make(map[string]replLease),
		prepared: make(map[string]bool),
	}
}

// serve starts a reader goroutine on conn; join joins it.
func (b *standby) serve(conn net.Conn) {
	b.wg.Add(1)
	go b.reader(conn)
}

// join waits for every reader started by serve to exit (their conns
// must be closed first).
func (b *standby) join() { b.wg.Wait() }

// reader applies repl-apply frames from conn and writes ack frames
// back. It exits when the conn dies.
func (b *standby) reader(conn net.Conn) {
	defer b.wg.Done()
	br := bufio.NewReader(conn)
	buf := make([]byte, 0, 512)
	acks := make([]wire.Msg, 0, 64)
	for {
		typ, entries, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if typ != wire.TypeReplApply {
			continue
		}
		acks = acks[:0]
		cur := b.curInc()
		b.mu.Lock()
		b.stream.Frame(time.Now().UnixMicro())
		for i := range entries {
			m := &entries[i]
			if !b.stream.Accepts(m.Inc, cur, m.Seq) {
				// A deposed primary is still writing: refuse, so its
				// rejected counter records the fencing.
				acks = append(acks, wire.Msg{Type: wire.TypeReplAck, Corr: m.Corr, Seq: m.Seq, Inc: cur, Code: 409})
				continue
			}
			if m.Op == ReplOpHeartbeat {
				b.stream.Heartbeat(m.Seq, int64(m.DeadlineUS))
				continue // liveness only, not acked
			}
			b.stream.Record(m.Seq)
			b.applyLocked(m)
			acks = append(acks, wire.Msg{Type: wire.TypeReplAck, Corr: m.Corr, Seq: m.Seq, Inc: m.Inc, Code: 0})
		}
		b.mu.Unlock()
		if len(acks) > 0 {
			buf = wire.AppendFrame(buf[:0], wire.TypeReplAck, acks)
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}
}

// applyLocked folds one record into the shadow table. Grants upsert —
// that makes a promoted primary's adoption stream double as a snapshot
// for surviving standbys.
//
// requires mu
func (b *standby) applyLocked(m *wire.Msg) {
	switch m.Op {
	case ReplOpGrant:
		b.table[m.Session] = replLease{
			resources: append([]string(nil), m.Resources...),
			deadline:  time.UnixMicro(int64(m.DeadlineUS)),
		}
	case ReplOpRenew:
		if l, ok := b.table[m.Session]; ok {
			l.deadline = time.UnixMicro(int64(m.DeadlineUS))
			b.table[m.Session] = l
		}
	case ReplOpRelease, ReplOpExpire, ReplOpFence:
		delete(b.table, m.Session)
	case ReplOpSpanPrepare:
		b.prepared[m.Session] = true
	case ReplOpSpanCommit, ReplOpSpanRollback:
		delete(b.prepared, m.Session)
	}
}

// state returns a copy of the standby's stream tracker — what a
// promotion decision needs from it.
func (b *standby) state() coord.Stream {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stream
}

// snapshot returns the shadow table as lease events sorted by ID —
// the proven leases a promotion will adopt.
func (b *standby) snapshot() []LeaseEvent {
	b.mu.Lock()
	out := make([]LeaseEvent, 0, len(b.table))
	for id, l := range b.table {
		out = append(out, LeaseEvent{
			Op:        ReplOpGrant,
			ID:        id,
			Resources: append([]string(nil), l.resources...),
			Deadline:  l.deadline,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
