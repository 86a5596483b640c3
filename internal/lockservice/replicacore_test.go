package lockservice

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
)

// TestReplicaCoreApply is the standby's apply rule, the one spelling
// both the Router's stream reader and detsim's replica harness call:
// each row feeds member 1 of a two-member core a run of records and
// checks which it acked, the gap verdict and the shadow table left.
func TestReplicaCoreApply(t *testing.T) {
	t0 := time.Unix(100, 0)
	dl := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	grant := func(seq uint64, id string, d time.Time) ReplRecord {
		return ReplRecord{LeaseEvent{Op: ReplOpGrant, ID: id, Resources: []string{"r-" + id}, Deadline: d}, seq, 1}
	}
	rec := func(op byte, seq uint64, id string, d time.Time) ReplRecord {
		return ReplRecord{LeaseEvent{Op: op, ID: id, Deadline: d}, seq, 1}
	}
	for _, tc := range []struct {
		name   string
		recs   []ReplRecord
		acked  []uint64
		gap    bool
		shadow map[string]time.Time
	}{{
		// A stream that opens on a heartbeat echoing sequence 0 and then
		// delivers record 2 has lost record 1.
		name:   "heartbeat 0 then record 2",
		recs:   []ReplRecord{rec(ReplOpHeartbeat, 0, "", time.Time{}), grant(2, "a", dl(30))},
		acked:  []uint64{2},
		gap:    true,
		shadow: map[string]time.Time{"a": dl(30)},
	}, {
		name:   "contiguous records",
		recs:   []ReplRecord{grant(1, "a", dl(30)), grant(2, "b", dl(31)), rec(ReplOpHeartbeat, 2, "", dl(31))},
		acked:  []uint64{1, 2},
		shadow: map[string]time.Time{"a": dl(30), "b": dl(31)},
	}, {
		name:   "stale incarnation refused",
		recs:   []ReplRecord{grant(1, "a", dl(30)), {LeaseEvent{Op: ReplOpGrant, ID: "z", Deadline: dl(40)}, 2, 0}},
		acked:  []uint64{1},
		shadow: map[string]time.Time{"a": dl(30)},
	}, {
		name: "grant, renew, release in order",
		recs: []ReplRecord{
			grant(1, "a", dl(30)), grant(2, "b", dl(30)),
			rec(ReplOpRenew, 3, "a", dl(60)), rec(ReplOpRelease, 4, "b", time.Time{}),
		},
		acked:  []uint64{1, 2, 3, 4},
		shadow: map[string]time.Time{"a": dl(60)},
	}, {
		// A promoted primary re-sends every adopted lease as a grant: to a
		// standby that already holds it, an idempotent upsert.
		name:   "grant re-sent at adoption",
		recs:   []ReplRecord{grant(1, "a", dl(30)), grant(2, "a", dl(30))},
		acked:  []uint64{1, 2},
		shadow: map[string]time.Time{"a": dl(30)},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewReplicaCore(make([]*ShardCore, 2), time.Second, time.Minute, func(int, ReplRecord) bool { return true })
			var acked []uint64
			for _, r := range tc.recs {
				if c.Apply(1, r, t0) {
					acked = append(acked, r.Seq)
				}
			}
			if !slices.Equal(acked, tc.acked) {
				t.Errorf("acked %v, want %v", acked, tc.acked)
			}
			st := c.stream(1)
			if st.recv.Gap() != tc.gap {
				t.Errorf("gap = %v, want %v", st.recv.Gap(), tc.gap)
			}
			got := map[string]time.Time{}
			for _, le := range st.snapshot() {
				got[le.ID] = le.Deadline
			}
			if len(got) != len(tc.shadow) {
				t.Fatalf("shadow %v, want %v", got, tc.shadow)
			}
			for id, d := range tc.shadow {
				if !got[id].Equal(d) {
					t.Errorf("shadow %s deadline %v, want %v", id, got[id], d)
				}
			}
		})
	}
}

// TestCompleteOnDeadChosenDrains: a promotion whose chosen member is
// down by Complete serves none of its adoptions, so every unexpired
// proven lease — and one the stream may never have carried — counts as a
// failed adoption, and the hold-down drains them; the same promotion
// with the member live adopts and serves at once.
func TestCompleteOnDeadChosenDrains(t *testing.T) {
	t0 := time.Unix(100, 0)
	ttl := 30 * time.Second
	for _, tc := range []struct {
		name   string
		leases []string
		live   bool
		failed int
	}{
		{"live, all adopted", []string{"a", "b"}, true, 0},
		{"dead after adopting", []string{"a", "b"}, false, 3},
		{"dead, empty shadow", nil, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cores := []*ShardCore{{ttl: ttl}, {ttl: ttl}}
			c := NewReplicaCore(cores, time.Second, time.Minute, func(int, ReplRecord) bool { return true })
			for i, id := range tc.leases {
				rec := ReplRecord{LeaseEvent{Op: ReplOpGrant, ID: id, Resources: []string{"r-" + id}, Deadline: t0.Add(ttl)}, uint64(i + 1), 1}
				if !c.Apply(1, rec, t0) {
					t.Fatalf("record %d not applied", rec.Seq)
				}
				c.Ack(1, rec.Seq)
			}
			c.Apply(1, ReplRecord{LeaseEvent{Op: ReplOpHeartbeat, Deadline: t0.Add(ttl)}, uint64(len(tc.leases)), 1}, t0)
			p, err := c.Promote(t0, func(int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			c.Adopt(p, t0, func(LeaseEvent) bool { return true })
			c.Complete(p, t0, func(int) bool { return tc.live })
			if p.Adopted != len(tc.leases) || p.Failed != tc.failed {
				t.Errorf("adopted %d failed %d, want %d and %d", p.Adopted, p.Failed, len(tc.leases), tc.failed)
			}
			if drains := !p.HoldUntil.IsZero(); p.Gap != !tc.live || drains != !tc.live {
				t.Errorf("gap %v hold-down until %v, want a drain only when the chosen member is down", p.Gap, p.HoldUntil)
			}
			if !tc.live && p.HoldUntil.Before(t0.Add(ttl)) {
				t.Errorf("hold-down ends %v, before the proven leases' deadline %v", p.HoldUntil, t0.Add(ttl))
			}
		})
	}
}

// TestSpanReplicatesOnlyLeaseRecords: a committed span's part replicates
// to its shard's standby as the ordinary lease records of its sub-lease
// — the grant, the renews that refresh and commit it, the release — and
// nothing else.
func TestSpanReplicatesOnlyLeaseRecords(t *testing.T) {
	rt := NewRouter(RouterConfig{Shards: 2, Replicas: 1, Base: fastConfig(graph.Grid(2, 2)), Failover: fastFailover(&logCapture{})})
	var mu sync.Mutex
	ops := make([][]byte, 2)
	for s, set := range rt.sets {
		enqueue := set.core.enqueue
		set.core.enqueue = func(m int, rec ReplRecord) bool {
			if rec.Op != ReplOpHeartbeat {
				mu.Lock()
				ops[s] = append(ops[s], rec.Op)
				mu.Unlock()
			}
			return enqueue(m, rec)
		}
	}
	rt.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Stop(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g, err := rt.Acquire(ctx, spanningPair(t, rt), 0, 0)
	if err != nil {
		t.Fatalf("span acquire: %v", err)
	}
	if err := rt.Release(g.SessionID); err != nil {
		t.Fatalf("span release: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for s, got := range ops {
		if len(got) < 3 || got[0] != ReplOpGrant || got[len(got)-1] != ReplOpRelease {
			t.Errorf("shard %d streamed ops %v, want a grant, its renews, a release", s, got)
			continue
		}
		for _, op := range got[1 : len(got)-1] {
			if op != ReplOpRenew {
				t.Errorf("shard %d streamed op %d between its part's grant and release: %v", s, op, got)
			}
		}
	}
}
