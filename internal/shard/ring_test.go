package shard

import (
	"fmt"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("edge:%d-%d", i, i+1)
	}
	return out
}

// TestRingDeterminism: same seed, same membership history → identical
// generation and identical placement for every key. This is what lets
// detsim replay routing from a seed.
func TestRingDeterminism(t *testing.T) {
	build := func() *Ring {
		r := New(42, 0)
		for s := 0; s < 5; s++ {
			if err := r.Add(s); err != nil {
				t.Fatalf("Add(%d): %v", s, err)
			}
		}
		if err := r.Remove(3); err != nil {
			t.Fatalf("Remove(3): %v", err)
		}
		return r
	}
	a, b := build(), build()
	if a.Generation() != b.Generation() || a.Generation() != 6 {
		t.Fatalf("generations %d vs %d, want 6", a.Generation(), b.Generation())
	}
	for _, k := range keys(2000) {
		sa, oka := a.Lookup(k)
		sb, okb := b.Lookup(k)
		if !oka || !okb || sa != sb {
			t.Fatalf("placement of %q diverged: %d/%v vs %d/%v", k, sa, oka, sb, okb)
		}
		if sa == 3 {
			t.Fatalf("key %q routed to removed shard 3", k)
		}
	}
}

// TestRingSeedSensitivity: a different seed must shuffle placements —
// otherwise the seed is decorative.
func TestRingSeedSensitivity(t *testing.T) {
	a, b := New(1, 0), New(2, 0)
	for s := 0; s < 4; s++ {
		a.Add(s)
		b.Add(s)
	}
	same := 0
	ks := keys(1000)
	for _, k := range ks {
		sa, _ := a.Lookup(k)
		sb, _ := b.Lookup(k)
		if sa == sb {
			same++
		}
	}
	if same == len(ks) {
		t.Fatal("seed has no effect on placement")
	}
}

// TestRingBalance: with the default virtual-node count no shard owns a
// wildly disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	r := New(7, 0)
	const shards = 4
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	counts := make([]int, shards)
	ks := keys(20000)
	for _, k := range ks {
		s, ok := r.Lookup(k)
		if !ok {
			t.Fatal("lookup failed on populated ring")
		}
		counts[s]++
	}
	mean := float64(len(ks)) / shards
	for s, c := range counts {
		if f := float64(c) / mean; f < 0.5 || f > 2.0 {
			t.Fatalf("shard %d owns %d keys (%.2fx mean): balance too skewed, counts=%v", s, c, f, counts)
		}
	}
}

// TestRingConsistency: removing one shard moves only that shard's keys;
// every key owned by a survivor stays put. Re-adding the shard restores
// the original placement exactly (virtual nodes are position-stable).
func TestRingConsistency(t *testing.T) {
	r := New(99, 0)
	const shards = 5
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	ks := keys(5000)
	before := make(map[string]int, len(ks))
	for _, k := range ks {
		s, _ := r.Lookup(k)
		before[k] = s
	}
	if err := r.Remove(2); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		s, _ := r.Lookup(k)
		if before[k] != 2 && s != before[k] {
			t.Fatalf("key %q moved %d→%d though shard %d survived", k, before[k], s, before[k])
		}
		if s == 2 {
			t.Fatalf("key %q still routed to removed shard", k)
		}
	}
	if err := r.Add(2); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if s, _ := r.Lookup(k); s != before[k] {
			t.Fatalf("re-admitting shard 2 did not restore placement of %q (%d→%d)", k, before[k], s)
		}
	}
}

// TestRingErrors covers the deliberate-change contract.
func TestRingErrors(t *testing.T) {
	r := New(0, 8)
	if _, ok := r.Lookup("x"); ok {
		t.Error("lookup on empty ring succeeded")
	}
	if err := r.Add(-1); err == nil {
		t.Error("negative shard accepted")
	}
	if err := r.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(1); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := r.Remove(9); err == nil {
		t.Error("Remove of non-member accepted")
	}
	if got := r.Members(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Members() = %v", got)
	}
	if !r.Has(1) || r.Has(2) {
		t.Error("Has() inconsistent")
	}
	if r.Size() != 1 {
		t.Errorf("Size() = %d", r.Size())
	}
	if r.Vnodes() != 8 || r.Seed() != 0 {
		t.Errorf("accessors: vnodes=%d seed=%d", r.Vnodes(), r.Seed())
	}
}

func TestRingBump(t *testing.T) {
	r := New(7, 8)
	for s := 0; s < 3; s++ {
		if err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]int{}
	keys := []string{"edge:0-1", "res-000042", "alpha", "beta", "gamma"}
	for _, k := range keys {
		s, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("lookup %q failed", k)
		}
		before[k] = s
	}
	gen := r.Generation()
	r.Bump()
	if got := r.Generation(); got != gen+1 {
		t.Fatalf("Bump: generation %d, want %d", got, gen+1)
	}
	if r.Size() != 3 {
		t.Fatalf("Bump changed membership: size %d", r.Size())
	}
	for _, k := range keys {
		s, _ := r.Lookup(k)
		if s != before[k] {
			t.Fatalf("Bump moved key %q: shard %d -> %d", k, before[k], s)
		}
	}
}

func TestRingOverrides(t *testing.T) {
	r := New(42, 0)
	for s := 0; s < 4; s++ {
		if err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	key := "res-000001"
	home, _ := r.Lookup(key)
	dst := (home + 1) % 4
	gen := r.Generation()

	if err := r.SetOverride(key, home); err == nil {
		t.Fatal("SetOverride to the current placement must be rejected")
	}
	if err := r.SetOverride(key, dst); err != nil {
		t.Fatal(err)
	}
	if got := r.Generation(); got != gen+1 {
		t.Fatalf("SetOverride generation %d, want %d", got, gen+1)
	}
	if s, _ := r.Lookup(key); s != dst {
		t.Fatalf("override ignored: Lookup = %d, want %d", s, dst)
	}
	if n := r.OverrideCount(); n != 1 {
		t.Fatalf("OverrideCount = %d, want 1", n)
	}
	// Every other key keeps its hash placement.
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("other-%03d", i)
		fresh := New(42, 0)
		for s := 0; s < 4; s++ {
			_ = fresh.Add(s)
		}
		want, _ := fresh.Lookup(k)
		if got, _ := r.Lookup(k); got != want {
			t.Fatalf("override leaked onto %q: %d, want %d", k, got, want)
		}
	}

	if err := r.ClearOverride(key); err != nil {
		t.Fatal(err)
	}
	if s, _ := r.Lookup(key); s != home {
		t.Fatalf("after clear, Lookup = %d, want hash home %d", s, home)
	}
	if err := r.ClearOverride(key); err == nil {
		t.Fatal("double clear must be rejected")
	}
}

func TestRingOverrideToHashHomeClearsPin(t *testing.T) {
	// Overriding a pinned key back to its hash home should delete the
	// entry, not stack a redundant pin.
	r := New(7, 0)
	for s := 0; s < 3; s++ {
		_ = r.Add(s)
	}
	key := "hot"
	home, _ := r.Lookup(key)
	if err := r.SetOverride(key, (home+1)%3); err != nil {
		t.Fatal(err)
	}
	if err := r.SetOverride(key, home); err != nil {
		t.Fatal(err)
	}
	if n := r.OverrideCount(); n != 0 {
		t.Fatalf("redundant pin retained: OverrideCount = %d", n)
	}
	if s, _ := r.Lookup(key); s != home {
		t.Fatalf("Lookup = %d, want %d", s, home)
	}
}

func TestRingRemoveDropsOverridesToDepartedShard(t *testing.T) {
	r := New(9, 0)
	for s := 0; s < 3; s++ {
		_ = r.Add(s)
	}
	key := "pinned"
	home, _ := r.Lookup(key)
	dst := (home + 1) % 3
	if err := r.SetOverride(key, dst); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(dst); err != nil {
		t.Fatal(err)
	}
	if r.OverrideCount() != 0 {
		t.Fatalf("override to departed shard retained")
	}
	if s, ok := r.Lookup(key); !ok || s == dst {
		t.Fatalf("Lookup = %d ok=%v, want a surviving member", s, ok)
	}
}

func TestRingOverridesReplication(t *testing.T) {
	// A replica applying SetOverrides to an identically built ring must
	// agree on every key — the RingInfo replication contract.
	build := func() *Ring {
		r := New(3, 0)
		for s := 0; s < 4; s++ {
			_ = r.Add(s)
		}
		return r
	}
	auth := build()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("hot-%d", i)
		home, _ := auth.Lookup(k)
		_ = auth.SetOverride(k, (home+1)%4)
	}
	replica := build()
	replica.SetOverrides(auth.Overrides())
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("key-%04d", i)
		a, _ := auth.Lookup(k)
		b, _ := replica.Lookup(k)
		if a != b {
			t.Fatalf("replica diverged on %q: %d vs %d", k, a, b)
		}
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("hot-%d", i)
		a, _ := auth.Lookup(k)
		b, _ := replica.Lookup(k)
		if a != b {
			t.Fatalf("replica diverged on override %q: %d vs %d", k, a, b)
		}
	}
}

// TestRingAddAllMatchesSequentialAdds: admitting members in one AddAll
// builds the ring the same Adds one by one build — same points in the
// same order, same generation, same placement of every key — onto an
// empty ring or a populated one. A refused AddAll changes nothing.
func TestRingAddAllMatchesSequentialAdds(t *testing.T) {
	for _, tc := range []struct {
		before, ids []int
	}{
		{nil, []int{0, 1, 2, 3}},
		{nil, []int{5, 2, 7}},
		{[]int{1}, []int{3, 0, 2}},
		{[]int{4, 0}, nil},
	} {
		seq, all := New(7, 0), New(7, 0)
		for _, s := range tc.before {
			if seq.Add(s) != nil || all.Add(s) != nil {
				t.Fatalf("%v: Add(%d) failed", tc.before, s)
			}
		}
		for _, s := range tc.ids {
			if err := seq.Add(s); err != nil {
				t.Fatalf("Add(%d): %v", s, err)
			}
		}
		if err := all.AddAll(tc.ids...); err != nil {
			t.Fatalf("AddAll(%v): %v", tc.ids, err)
		}
		if seq.Generation() != all.Generation() || fmt.Sprint(seq.Members()) != fmt.Sprint(all.Members()) {
			t.Fatalf("%v then %v: sequential adds give generation %d members %v, AddAll %d %v",
				tc.before, tc.ids, seq.Generation(), seq.Members(), all.Generation(), all.Members())
		}
		if !slices.Equal(seq.points, all.points) {
			t.Fatalf("%v then %v: the rings' points differ", tc.before, tc.ids)
		}
		for i := 1; i < len(all.points); i++ {
			a, b := all.points[i-1], all.points[i]
			if a.hash > b.hash || a.hash == b.hash && a.shard >= b.shard {
				t.Fatalf("points %d and %d out of (hash, shard) order: %+v, %+v", i-1, i, a, b)
			}
		}
		for _, k := range keys(10000) {
			a, okA := seq.Lookup(k)
			b, okB := all.Lookup(k)
			if a != b || okA != okB {
				t.Fatalf("%v then %v: key %q on shard %d/%v after sequential adds, %d/%v after AddAll", tc.before, tc.ids, k, a, okA, b, okB)
			}
		}
	}
	r := New(7, 0)
	if err := r.AddAll(0, 1); err != nil {
		t.Fatal(err)
	}
	points := slices.Clone(r.points)
	for _, bad := range [][]int{{2, -1}, {2, 1}, {2, 3, 2}} {
		if err := r.AddAll(bad...); err == nil {
			t.Fatalf("AddAll(%v) accepted", bad)
		}
		if r.Generation() != 2 || r.Size() != 2 || !slices.Equal(r.points, points) {
			t.Fatalf("refused AddAll(%v) changed the ring: generation %d, members %v", bad, r.Generation(), r.Members())
		}
	}
}
