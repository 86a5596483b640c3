package lockservice

import (
	"sync"
	"time"
)

// replBacklog bounds the primary-side record queue per standby. A full
// backlog drops the record (never blocks the serving path); the drop is
// visible to the standby as a heartbeat sequence gap, which forces a
// TTL-drain hold-down if that standby is later promoted.
const replBacklog = 1024

// link is one replication stream's plumbing: the bounded record queue,
// the one goroutine that applies it on the standby's behalf, and the
// requests parked on the stream's acks. The stream's protocol state —
// sequence numbers, acks, the standby's shadow table — is the
// ReplicaCore's; the link carries records from the core's primary end
// to its standby end, and wakes a parked request only once the ack it
// waits for arrived. It is torn down when its standby is promoted or the
// set stops.
type link struct {
	core   *ReplicaCore
	member int // the standby's member index

	records chan ReplRecord
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex  //lint:order rank lockservice 30
	acked   uint64      // guarded by mu: the highest sequence acked
	waiters []ackWaiter // guarded by mu
}

// ackWaiter is one request parked until its stream acks seq.
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// newLink starts member's stream and its standby goroutine.
func newLink(core *ReplicaCore, member int) *link {
	l := &link{
		core:    core,
		member:  member,
		records: make(chan ReplRecord, replBacklog),
		done:    make(chan struct{}),
	}
	l.wg.Add(1)
	go l.standby()
	return l
}

// enqueue hands one record to the standby; false when the backlog is
// full (the record is dropped rather than stalling the lease path).
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

// standby is the stream's one goroutine: it drains a batch of records,
// applies each through the core on the standby's behalf, acks the
// highest sequence it applied, and wakes the requests that ack releases.
func (l *link) standby() {
	defer l.wg.Done()
	// At most 64 records per ack, so the first request of a long backlog
	// is not held back by the last.
	batch := make([]ReplRecord, 0, 64)
	for {
		select {
		case <-l.done:
			return
		case rec := <-l.records:
			batch = append(batch[:0], rec)
		}
	drain:
		for len(batch) < cap(batch) {
			select {
			case rec := <-l.records:
				batch = append(batch, rec)
			default:
				break drain
			}
		}
		now := time.Now()
		var top uint64
		for _, rec := range batch {
			if l.core.Apply(l.member, rec, now) {
				top = max(top, rec.Seq)
			}
		}
		if top > 0 {
			l.core.Ack(l.member, top)
			l.advance(top)
		}
	}
}

// close ends the stream and joins its goroutine.
func (l *link) close() {
	l.once.Do(func() { close(l.done) })
	l.wg.Wait()
}
