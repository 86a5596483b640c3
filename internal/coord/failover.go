package coord

// A failover replaces a shard's (presumed dead) primary with its
// freshest live standby under a bumped incarnation. The Detector says
// when; Choose says who. The incarnation bumps before anything else, so
// from that instant the old primary's stream writes are refused
// (Stream.Accepts) and its in-flight grants fail the replica set's fence
// check. Leases the standby can prove and that are still Adoptable are
// re-granted under their original IDs; the adoption grants replicate to
// the surviving standbys, doubling as the new primary's snapshot. If the
// stream showed loss (Evidence.Gap), new grants are held down until
// every possibly-lost lease has TTL-drained (HoldUntil); a clean stream
// means no hold-down — the blackout is detection plus promotion.

// Detector is the miss-count failure detector of one shard primary.
type Detector struct {
	// Misses is how many consecutive failed checks depose a primary; one
	// miss is too twitchy under scheduler jitter.
	Misses int
	// Cooloff is the hold-down after a promotion attempt: a flapping
	// shard gets at most one promotion per window, so a crash loop
	// cannot churn leadership faster than clients can follow the ring
	// generation.
	Cooloff int64

	missed    int
	coolUntil int64
}

// Check feeds one health probe and reports whether to promote now.
func (d *Detector) Check(healthy bool, now int64) bool {
	if healthy {
		d.missed = 0
		return false
	}
	d.missed++
	return d.missed >= d.Misses && now >= d.coolUntil
}

// Promoted records that a promotion was attempted (it may have failed):
// the miss count restarts and the cool-off window opens.
func (d *Detector) Promoted(now int64) {
	d.missed = 0
	d.coolUntil = now + d.Cooloff
}

// Stream is the standby-side tracker of one replication stream. Records
// carry the primary's incarnation and a per-stream sequence number;
// heartbeats echo the last sequence issued (so the standby can detect
// enqueue-dropped records) and the primary's latest live lease deadline
// (the TTL-drain bound should records turn out lost).
type Stream struct {
	inc     uint64 // incarnation of the live stream
	base    uint64 // first sequence seen on the live stream
	applied uint64 // highest applied record sequence
	hb      uint64 // highest heartbeat-echoed sequence
	gap     bool   // a sequence jump proved a record was lost
	drainTo int64  // latest lease deadline heartbeats reported
	last    int64  // tick of the last frame
	seen    bool   // a frame ever arrived
}

// Frame notes that a frame arrived at now (stream recency).
func (s *Stream) Frame(now int64) { s.last, s.seen = now, true }

// Accepts reports whether a record stamped inc may be applied under the
// replica set's current incarnation cur; a deposed primary still writing
// is refused. An accepted record of a new incarnation restarts sequence
// tracking at seq — earlier numbers belong to the old stream.
func (s *Stream) Accepts(inc, cur, seq uint64) bool {
	if inc != cur {
		return false
	}
	if inc != s.inc {
		s.inc, s.base = inc, seq
		s.applied, s.hb = 0, 0
		s.gap = false
	}
	return true
}

// Heartbeat folds one liveness record in: seq echoes the last sequence
// the primary issued, deadline its latest live lease deadline.
func (s *Stream) Heartbeat(seq uint64, deadline int64) {
	if seq > s.hb {
		s.hb = seq
	}
	if deadline > s.drainTo {
		s.drainTo = deadline
	}
}

// Record notes one applied lease record. A sequence jump on the FIFO
// stream proves a record was dropped at the primary's enqueue; the ack
// watermark and the heartbeat check both mask interior drops (later acks
// raise them past the hole), so contiguity is the only witness — sticky
// until the next incarnation restarts the stream. The first record after
// a restart has no predecessor to be contiguous with (applied < base),
// so a drop landing exactly there is invisible here; Evidence.Dropped
// covers it from the primary's side.
func (s *Stream) Record(seq uint64) {
	if s.applied >= s.base && seq > s.applied+1 {
		s.gap = true
	}
	if seq > s.applied {
		s.applied = seq
	}
}

// Applied is the highest applied record sequence.
func (s *Stream) Applied() uint64 { return s.applied }

// Gap reports whether records were issued that this standby never
// applied: a contiguity jump, or a heartbeat watermark ahead of it.
func (s *Stream) Gap() bool {
	return s.gap || (s.hb > s.applied && s.hb > s.base)
}

// DrainTo is the latest lease deadline the primary ever reported (zero
// when none was).
func (s *Stream) DrainTo() int64 { return s.drainTo }

// Stale reports whether the stream has been silent for longer than
// after at now; a stream that never carried a frame is not stale.
func (s *Stream) Stale(now, after int64) bool {
	return after > 0 && s.seen && now-s.last > after
}

// Standby is what a promotion decision needs to know of one candidate.
type Standby struct {
	Live    bool
	Applied uint64
}

// Choose returns the index of the freshest live standby, -1 when none
// is live. Ties keep the earliest.
func Choose(standbys []Standby) int {
	best := -1
	for i, sb := range standbys {
		if sb.Live && (best == -1 || sb.Applied > standbys[best].Applied) {
			best = i
		}
	}
	return best
}

// Evidence is everything a promotion knows about whether the chosen
// standby's shadow table may be missing leases the old primary granted.
type Evidence struct {
	// StreamGap is the standby's own view (Stream.Gap).
	StreamGap bool
	// Lag is issued-but-unacked records at decision time: they may be
	// enqueue drops, or still queued on a link the promotion is about to close.
	// Heartbeats cannot vouch for them (the stream is FIFO, so a processed
	// heartbeat never outruns a merely-slow record), so they are presumed
	// lost.
	Lag uint64
	// Dropped is the stream's lifetime enqueue drops. Deliberately
	// conservative (a later snapshot may have healed the hole): an extra
	// TTL drain merely delays recovery while a missed drop would break
	// exclusion.
	Dropped int64
	// Stale is Stream.Stale at decision time.
	Stale bool
	// FailedAdoptions counts proven leases that could not be re-granted:
	// their holders still believe in them, so they are as good as lost.
	FailedAdoptions int
}

// Gap reports whether unproven leases may exist, so that new grants
// must wait out a TTL drain.
func (e Evidence) Gap() bool {
	return e.StreamGap || e.Lag > 0 || e.Dropped > 0 || e.Stale || e.FailedAdoptions > 0
}

// Adoptable reports whether a proven lease is still worth re-granting
// at now; an expired one is skipped.
func Adoptable(deadline, now int64) bool { return deadline > now }

// HoldUntil is the tick until which a promoted primary refuses new
// grants: zero with a clean stream, else the later of one full lease TTL
// from now and the latest deadline the old primary ever advertised.
func HoldUntil(gap bool, now, ttl, drainTo int64) int64 {
	if !gap {
		return 0
	}
	if until := now + ttl; until > drainTo {
		return until
	}
	return drainTo
}
