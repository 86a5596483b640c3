package coord

import (
	"reflect"
	"testing"
)

// script replays outcomes into a Span and records every action it emits,
// the terminal included.
func script(n int, outcomes ...bool) (acts []SpanAction, sp Span) {
	sp = NewSpan(n)
	act := sp.Next()
	for _, ok := range outcomes {
		acts = append(acts, act)
		act = sp.Done(ok)
	}
	return append(acts, act), sp
}

func TestSpan(t *testing.T) {
	const ok, fail = true, false
	P := func(i int) SpanAction { return SpanAction{Op: SpanPrepare, Part: i} }
	R := func(i int) SpanAction { return SpanAction{Op: SpanRefresh, Part: i} }
	C := func(i int) SpanAction { return SpanAction{Op: SpanCommit, Part: i} }
	X := func(i int) SpanAction { return SpanAction{Op: SpanRelease, Part: i} }
	epoch, placement := SpanAction{Op: SpanEpoch}, SpanAction{Op: SpanPlacement}
	committed, aborted := SpanAction{Op: SpanCommitted}, SpanAction{Op: SpanAborted}

	for _, tc := range []struct {
		name     string
		parts    int
		outcomes []bool
		want     []SpanAction
		why      SpanAbort
		at, held int
	}{
		{"three parts commit: every earlier prepare refreshed after each grant",
			3, []bool{ok, ok, ok, ok, ok, ok, ok, ok, ok, ok},
			[]SpanAction{P(0), P(1), R(0), P(2), R(0), R(1), epoch, C(0), C(1), C(2), committed},
			NotAborted, 0, 3},
		{"single part: no refresh, straight to the epoch check",
			1, []bool{ok, ok, ok},
			[]SpanAction{P(0), epoch, C(0), committed},
			NotAborted, 0, 1},
		{"first part fails: nothing held, nothing released",
			2, []bool{fail},
			[]SpanAction{P(0), aborted},
			PrepareFailed, 0, 0},
		{"later part fails: rollback releases in reverse",
			3, []bool{ok, ok, ok, fail, ok, ok},
			[]SpanAction{P(0), P(1), R(0), P(2), X(1), X(0), aborted},
			PrepareFailed, 2, 2},
		{"prepare lost mid-span: the lost one is released too",
			3, []bool{ok, ok, ok, ok, ok, fail, ok, ok, ok},
			[]SpanAction{P(0), P(1), R(0), P(2), R(0), R(1), X(2), X(1), X(0), aborted},
			PrepareLostMidSpan, 1, 3},
		{"prepare lost at commit: already-committed parts are released",
			2, []bool{ok, ok, ok, ok, ok, fail, fail, ok},
			[]SpanAction{P(0), P(1), R(0), epoch, C(0), C(1), X(1), X(0), aborted},
			PrepareLostAtCommit, 1, 2},
		{"generation changed and placement moved: abort",
			2, []bool{ok, ok, ok, fail, fail, ok, ok},
			[]SpanAction{P(0), P(1), R(0), epoch, placement, X(1), X(0), aborted},
			PlacementMoved, 0, 2},
		{"generation changed but placement intact: commit",
			2, []bool{ok, ok, ok, fail, ok, ok, ok},
			[]SpanAction{P(0), P(1), R(0), epoch, placement, C(0), C(1), committed},
			NotAborted, 0, 2},
	} {
		got, sp := script(tc.parts, tc.outcomes...)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
		if why, at := sp.Abort(); why != tc.why || at != tc.at || sp.Held() != tc.held {
			t.Errorf("%s: abort=(%d,%d) held=%d, want (%d,%d) held=%d", tc.name, why, at, sp.Held(), tc.why, tc.at, tc.held)
		}
	}
}

func TestAscendingReassertsOrder(t *testing.T) {
	parts := Ascending([]Part{{Shard: 3, Keys: []string{"c"}}, {Shard: 0, Keys: []string{"a"}}, {Shard: 2, Keys: []string{"b1", "b2"}}})
	want := []Part{{Shard: 0, Keys: []string{"a"}}, {Shard: 2, Keys: []string{"b1", "b2"}}, {Shard: 3, Keys: []string{"c"}}}
	if !reflect.DeepEqual(parts, want) {
		t.Fatalf("Ascending = %v, want %v", parts, want)
	}
}

func TestMigrateRequestCheck(t *testing.T) {
	good := MigrateRequest{Dst: 1, Shards: 3, Src: 0, Placed: true, DstInRing: true, DstHealthy: true}
	with := func(f func(*MigrateRequest)) MigrateRequest { q := good; f(&q); return q }
	for _, tc := range []struct {
		name    string
		req     MigrateRequest
		want    MigrateRefusal
		invalid bool
	}{
		{"accepted", good, MigrateOK, false},
		{"negative destination", with(func(q *MigrateRequest) { q.Dst = -1 }), RefuseOutOfRange, true},
		{"destination past the last shard", with(func(q *MigrateRequest) { q.Dst = 3 }), RefuseOutOfRange, true},
		{"key resolves nowhere", with(func(q *MigrateRequest) { q.Placed = false }), RefuseUnplaced, false},
		{"already placed on the destination", with(func(q *MigrateRequest) { q.Src = 1 }), RefuseAlreadyPlaced, false},
		{"destination not in the ring", with(func(q *MigrateRequest) { q.DstInRing = false }), RefuseNotInRing, true},
		{"already migrating", with(func(q *MigrateRequest) { q.Fenced = true }), RefuseAlreadyMigrating, false},
		{"leaderless destination", with(func(q *MigrateRequest) { q.DstHealthy = false }), RefuseLeaderless, false},
		{"request defects outrank state conflicts",
			with(func(q *MigrateRequest) { q.DstInRing, q.Fenced, q.DstHealthy = false, true, false }), RefuseNotInRing, true},
	} {
		if got := tc.req.Check(); got != tc.want || got.Invalid() != tc.invalid {
			t.Errorf("%s: Check = %d (invalid=%v), want %d (invalid=%v)", tc.name, got, got.Invalid(), tc.want, tc.invalid)
		}
	}
}

func TestMigrationFenceAndDrain(t *testing.T) {
	m := Migration{Key: "k", Src: 0, Dst: 1, Deadline: 100}
	for _, tc := range []struct {
		now    int64
		leases int
		fences bool
		drain  DrainVerdict
	}{
		{10, 2, true, DrainWait},
		{10, 0, true, Drained},
		{99, 0, true, Drained},
		{100, 0, true, DrainTimedOut}, // routing still bounces, but the drain no longer counts
		{100, 1, true, DrainTimedOut},
		{101, 0, false, DrainTimedOut}, // the wedged-migration escape hatch
	} {
		if got := m.Fences(tc.now); got != tc.fences {
			t.Errorf("Fences(%d) = %v, want %v", tc.now, got, tc.fences)
		}
		if got := m.Drain(tc.now, tc.leases); got != tc.drain {
			t.Errorf("Drain(%d, %d) = %d, want %d", tc.now, tc.leases, got, tc.drain)
		}
	}
}

func TestMigrationCommit(t *testing.T) {
	m := Migration{Key: "k", Src: 0, Dst: 1, Deadline: 100}
	for _, tc := range []struct {
		name      string
		now       int64
		drained   bool
		srcLeases int
		dstInRing bool
		placedAt  int
		want      CommitVerdict
	}{
		{"clean drain under a live fence", 50, true, 0, true, 0, CommitOverride},
		{"drain timed out", 100, false, 1, true, 0, AbortNotDrained},
		{"expired fence at commit (the PR 10 window)", 100, true, 0, true, 0, AbortFenceExpired},
		{"expired fence outranks a regained lease", 120, true, 1, true, 0, AbortFenceExpired},
		{"drained, then the source regained a lease at the re-probe", 50, true, 1, true, 0, AbortRegainedLease},
		{"destination left the ring mid-drain", 50, true, 0, false, 0, AbortDestinationLeft},
		{"hash placement already equals the destination", 50, true, 0, true, 1, CommitBump},
	} {
		got := m.Commit(tc.now, tc.drained, tc.srcLeases, tc.dstInRing, tc.placedAt)
		if got != tc.want {
			t.Errorf("%s: Commit = %d, want %d", tc.name, got, tc.want)
		}
		if got.Aborted() != (tc.want >= AbortNotDrained) {
			t.Errorf("%s: Aborted() = %v", tc.name, got.Aborted())
		}
	}
}

func TestDetector(t *testing.T) {
	d := Detector{Misses: 3, Cooloff: 10}
	probe := func(now int64, healthy, want bool) {
		t.Helper()
		if got := d.Check(healthy, now); got != want {
			t.Fatalf("Check(%v, %d) = %v, want %v", healthy, now, got, want)
		}
	}
	probe(0, false, false)
	probe(1, false, false)
	probe(2, true, false) // one healthy probe restarts the count
	probe(3, false, false)
	probe(4, false, false)
	probe(5, false, true)
	d.Promoted(5)
	// A flapping shard: the successor dies inside the cool-off window.
	for now := int64(6); now < 15; now++ {
		probe(now, false, false)
	}
	probe(15, false, true) // misses kept counting; the window just closed
}

func TestStream(t *testing.T) {
	// A frame arrives stamped inc while the replica set is at incarnation cur.
	type frame struct {
		cur, inc, seq uint64
		hb            bool
		deadline      int64
	}
	rec := func(inc, seq uint64) frame { return frame{cur: inc, inc: inc, seq: seq} }
	hb := func(inc, seq uint64, deadline int64) frame {
		return frame{cur: inc, inc: inc, seq: seq, hb: true, deadline: deadline}
	}
	stale := func(cur, inc, seq uint64) frame { return frame{cur: cur, inc: inc, seq: seq} }
	for _, tc := range []struct {
		name    string
		frames  []frame
		applied uint64
		gap     bool
		drainTo int64
	}{
		{"contiguous records", []frame{rec(1, 1), rec(1, 2), rec(1, 3)}, 3, false, 0},
		{"interior drop: contiguity is the only witness", []frame{rec(1, 1), rec(1, 3), hb(1, 3, 70)}, 3, true, 70},
		{"heartbeat watermark ahead of the last record", []frame{rec(1, 1), hb(1, 4, 50)}, 1, true, 50},
		{"heartbeat watermark caught up", []frame{rec(1, 1), hb(1, 2, 50), rec(1, 2)}, 2, false, 50},
		{"a deposed primary's records are refused", []frame{rec(1, 1), stale(2, 1, 2), stale(2, 1, 4)}, 1, false, 0},
		{"gap before an incarnation reset is sticky until it", []frame{rec(2, 7), rec(2, 9)}, 9, true, 0},
		{"incarnation reset forgets the old stream's gap", []frame{rec(2, 7), rec(2, 9), rec(3, 10)}, 10, false, 0},
		{"first record after a reset has no predecessor", []frame{hb(2, 50, 9), rec(2, 52), rec(2, 53)}, 53, false, 9},
		{"stream opening on heartbeat 0: record 1 was dropped", []frame{hb(1, 0, 0), rec(1, 2)}, 2, true, 0},
	} {
		var s Stream
		for _, f := range tc.frames {
			if !s.Accepts(f.inc, f.cur, f.seq) {
				continue
			}
			if f.hb {
				s.Heartbeat(f.seq, f.deadline)
			} else {
				s.Record(f.seq)
			}
		}
		if s.Applied() != tc.applied || s.Gap() != tc.gap || s.DrainTo() != tc.drainTo {
			t.Errorf("%s: applied=%d gap=%v drainTo=%d, want %d %v %d",
				tc.name, s.Applied(), s.Gap(), s.DrainTo(), tc.applied, tc.gap, tc.drainTo)
		}
	}

	var s Stream
	if s.Stale(1000, 10) {
		t.Error("a stream that never carried a frame is stale")
	}
	s.Frame(100)
	if s.Stale(110, 10) || !s.Stale(111, 10) || s.Stale(500, 0) {
		t.Error("Stale: want silence strictly longer than the bound, and no bound to mean never")
	}
}

func TestChoose(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []Standby
		want int
	}{
		{"no standbys", nil, -1},
		{"no live standby", []Standby{{false, 9}, {false, 3}}, -1},
		{"halted standby skipped though freshest", []Standby{{false, 9}, {true, 3}, {true, 5}}, 2},
		{"ties keep the earliest", []Standby{{true, 4}, {true, 4}}, 0},
		{"a live standby that applied nothing still wins over none", []Standby{{false, 2}, {true, 0}}, 1},
	} {
		if got := Choose(tc.in); got != tc.want {
			t.Errorf("%s: Choose = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestEvidenceAndHold(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   Evidence
		gap  bool
	}{
		{"clean stream", Evidence{}, false},
		{"standby saw a gap", Evidence{StreamGap: true}, true},
		{"lag > 0", Evidence{Lag: 1}, true},
		{"dropped > 0", Evidence{Dropped: 1}, true},
		{"stale stream", Evidence{Stale: true}, true},
		{"failed adoption", Evidence{FailedAdoptions: 1}, true},
	} {
		if got := tc.ev.Gap(); got != tc.gap {
			t.Errorf("%s: Gap = %v, want %v", tc.name, got, tc.gap)
		}
	}
	for _, tc := range []struct {
		name              string
		gap               bool
		now, ttl, drainTo int64
		want              int64
	}{
		{"clean stream: no hold", false, 100, 30, 500, 0},
		{"one TTL from now", true, 100, 30, 0, 130},
		{"drainTo later than now+TTL", true, 100, 30, 170, 170},
		{"drainTo already behind", true, 100, 30, 120, 130},
	} {
		if got := HoldUntil(tc.gap, tc.now, tc.ttl, tc.drainTo); got != tc.want {
			t.Errorf("%s: HoldUntil = %d, want %d", tc.name, got, tc.want)
		}
	}
	if !Adoptable(11, 10) || Adoptable(10, 10) || Adoptable(9, 10) {
		t.Error("Adoptable: want strictly-unexpired leases only")
	}
}
