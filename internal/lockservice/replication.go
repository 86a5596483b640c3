package lockservice

import (
	"bufio"
	"net"
	"sync"
	"time"

	"mcdp/internal/wire"
)

// replBacklog bounds the primary-side record queue per standby. A full
// backlog drops the record (never blocks the serving path); the drop is
// visible to the standby as a heartbeat sequence gap, which forces a
// TTL-drain hold-down if that standby is later promoted.
const replBacklog = 1024

// link is one replication stream's plumbing: the in-memory duplex pipe,
// the primary-side sender and ack reader, the standby-side reader, and
// the requests parked on the stream's acks. The stream's protocol state
// — sequence numbers, acks, the standby's shadow table — is the
// ReplicaCore's; the link carries records and acks between the core's
// two ends, and wakes a parked request only once the ack it waits for
// arrived. It is torn down when its standby is promoted or the set
// stops.
type link struct {
	core   *ReplicaCore
	member int // the standby's member index

	connP, connS net.Conn // primary-side and standby-side ends
	records      chan ReplRecord
	done         chan struct{}
	once         sync.Once
	wg           sync.WaitGroup

	mu      sync.Mutex  //lint:order rank lockservice 30
	acked   uint64      // guarded by mu: the highest sequence acked
	waiters []ackWaiter // guarded by mu
}

// ackWaiter is one request parked until its stream acks seq.
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// newLink starts member's stream: the sender, the ack reader and the
// standby reader.
func newLink(core *ReplicaCore, member int) *link {
	l := &link{
		core:    core,
		member:  member,
		records: make(chan ReplRecord, replBacklog),
		done:    make(chan struct{}),
	}
	l.connP, l.connS = net.Pipe()
	l.wg.Add(3)
	go l.sender()
	go l.ackLoop()
	go l.standby()
	return l
}

// enqueue hands one record to the sender; false when the backlog is
// full (the record is dropped rather than stalling the lease path). The
// sender, not the lease path, encodes it.
func (l *link) enqueue(rec ReplRecord) bool {
	select {
	case l.records <- rec:
		return true
	default:
		return false
	}
}

// wait blocks until the standby acks sequence seq, until passes, or the
// stream closes.
func (l *link) wait(seq uint64, until time.Time) {
	l.mu.Lock()
	if l.acked >= seq {
		l.mu.Unlock()
		return
	}
	w := ackWaiter{seq: seq, ch: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	t := time.NewTimer(time.Until(until))
	defer t.Stop()
	select {
	case <-w.ch:
	case <-t.C:
	case <-l.done:
	}
}

// advance raises the link's ack watermark to seq and wakes every request
// parked on a sequence it covers.
func (l *link) advance(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.acked {
		return
	}
	l.acked = seq
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		if w.seq <= seq {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	l.waiters = kept
}

// sender drains the record queue into batched repl-apply frames.
func (l *link) sender() {
	defer l.wg.Done()
	buf := make([]byte, 0, 4096)
	batch := make([]wire.Msg, 0, 64)
	for {
		select {
		case <-l.done:
			return
		case rec := <-l.records:
			batch = append(batch[:0], applyMsg(rec))
		drain:
			for len(batch) < cap(batch) {
				select {
				case rec := <-l.records:
					batch = append(batch, applyMsg(rec))
				default:
					break drain
				}
			}
			buf = wire.AppendFrame(buf[:0], wire.TypeReplApply, batch)
			if _, err := l.connP.Write(buf); err != nil {
				return
			}
		}
	}
}

// applyMsg encodes one stream record as a repl-apply entry.
func applyMsg(rec ReplRecord) wire.Msg {
	m := wire.Msg{
		Type:      wire.TypeReplApply,
		Corr:      rec.Seq,
		Seq:       rec.Seq,
		Inc:       rec.Inc,
		Op:        rec.Op,
		Session:   rec.ID,
		Resources: rec.Resources,
	}
	if !rec.Deadline.IsZero() {
		m.DeadlineUS = uint64(rec.Deadline.UnixMicro())
	}
	return m
}

// ackLoop reads repl-ack frames, raises the core's ack watermark, then
// wakes the requests the frame's acks release.
func (l *link) ackLoop() {
	defer l.wg.Done()
	br := bufio.NewReader(l.connP)
	for {
		typ, entries, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if typ != wire.TypeReplAck {
			continue
		}
		var top uint64
		for i := range entries {
			top = max(top, entries[i].Seq)
		}
		l.core.Ack(l.member, top)
		l.advance(top)
	}
}

// standby applies repl-apply frames through the core on the standby's
// behalf and acks the records it applied.
func (l *link) standby() {
	defer l.wg.Done()
	br := bufio.NewReader(l.connS)
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
		now := time.Now()
		acks = acks[:0]
		for i := range entries {
			m := &entries[i]
			rec := ReplRecord{
				LeaseEvent: LeaseEvent{Op: m.Op, ID: m.Session, Resources: m.Resources},
				Seq:        m.Seq,
				Inc:        m.Inc,
			}
			if m.DeadlineUS != 0 {
				rec.Deadline = time.UnixMicro(int64(m.DeadlineUS))
			}
			if l.core.Apply(l.member, rec, now) {
				acks = append(acks, wire.Msg{Type: wire.TypeReplAck, Corr: m.Corr, Seq: m.Seq, Inc: m.Inc})
			}
		}
		if len(acks) > 0 {
			buf = wire.AppendFrame(buf[:0], wire.TypeReplAck, acks)
			if _, err := l.connS.Write(buf); err != nil {
				return
			}
		}
	}
}

// close ends the stream and joins its goroutines. Closing the conns
// unblocks the readers and any in-flight write.
func (l *link) close() {
	l.once.Do(func() {
		close(l.done)
		l.connP.Close()
		l.connS.Close()
	})
	l.wg.Wait()
}
