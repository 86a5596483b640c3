package coord

// A key migration moves one key between shards in three moves, each
// built on a fencing contract the service already relies on:
//
//  1. Fence: record the key as migrating and bump the ring generation
//     (the failover idiom — fencing lands before anything new exists).
//     New acquires naming the key bounce at placement resolution;
//     acquires that resolved placement before the fence and get granted
//     after it are released by the post-grant check before any client
//     sees them.
//  2. Drain: wait until the source shard holds no live lease on the key
//     — holders release or their TTL expires. A drain that outlives its
//     budget aborts: the fence lifts, placement is unchanged, clients
//     re-resolve to the same home.
//  3. Commit: with the fence deadline still standing and the source
//     re-probed lease-free in the same critical section that installs the
//     override, route the key to the destination. A fence that expired
//     before commit aborts unconditionally — once routing stops
//     honouring the fence, acquires may have reached the source again,
//     so the drain observation is stale.
//
// Exclusion across the epoch therefore never depends on timing: a key
// has live leases on at most one shard because the override only lands
// after the source provably drained under a live fence, and no grant
// straddles the fence.

// MigrateRefusal says why a migration request cannot start.
type MigrateRefusal uint8

const (
	MigrateOK MigrateRefusal = iota
	// RefuseOutOfRange and RefuseNotInRing are defects in the request
	// itself (Invalid): the named destination cannot take the key.
	RefuseOutOfRange
	RefuseNotInRing
	// The rest are migration-state conflicts worth retrying.
	RefuseUnplaced
	RefuseAlreadyPlaced
	RefuseAlreadyMigrating
	RefuseLeaderless
)

func (r MigrateRefusal) String() string {
	return [...]string{"accepted", "destination shard out of range", "destination shard not in ring",
		"key resolves to no shard", "already placed on the destination", "already migrating",
		"destination shard is leaderless"}[r]
}

// Invalid reports whether the refusal is the caller's to fix (HTTP 400)
// rather than a state conflict (409).
func (r MigrateRefusal) Invalid() bool { return r == RefuseOutOfRange || r == RefuseNotInRing }

// MigrateRequest is the sensed state a migration request is judged on.
type MigrateRequest struct {
	Dst, Shards int
	// Src is the key's current placement; Placed is false when the ring
	// resolves it nowhere.
	Src    int
	Placed bool
	// DstInRing and DstHealthy describe the destination shard; Fenced is
	// whether a migration of the key is already in flight.
	DstInRing, DstHealthy, Fenced bool
}

// Check judges the request; the first failing condition wins.
func (q MigrateRequest) Check() MigrateRefusal {
	switch {
	case q.Dst < 0 || q.Dst >= q.Shards:
		return RefuseOutOfRange
	case !q.Placed:
		return RefuseUnplaced
	case q.Src == q.Dst:
		return RefuseAlreadyPlaced
	case !q.DstInRing:
		return RefuseNotInRing
	case q.Fenced:
		return RefuseAlreadyMigrating
	case !q.DstHealthy:
		return RefuseLeaderless
	}
	return MigrateOK
}

// Migration is one in-flight key move, from fence to override install
// (or abort). Deadline bounds the fence even if the migrating driver dies
// mid-drain: routing treats an expired fence as absent, so a wedged
// migration cannot fence a key forever.
type Migration struct {
	Key      string
	Src, Dst int
	Deadline int64
}

// Fences reports whether acquires naming the key must bounce at now.
func (m *Migration) Fences(now int64) bool { return now <= m.Deadline }

// DrainVerdict is one look at the source's lease table.
type DrainVerdict uint8

const (
	DrainWait DrainVerdict = iota
	Drained
	DrainTimedOut
)

// Drain judges one drain probe: srcLeases is the source shard's live
// lease count on the key at now.
func (m *Migration) Drain(now int64, srcLeases int) DrainVerdict {
	switch {
	case now >= m.Deadline:
		return DrainTimedOut
	case srcLeases == 0:
		return Drained
	}
	return DrainWait
}

// CommitVerdict is the outcome of a migration's commit step.
type CommitVerdict uint8

const (
	// CommitOverride: install the key → Dst override (a generation bump).
	CommitOverride CommitVerdict = iota
	// CommitBump: a membership change mid-drain already moved the key's
	// hash placement to Dst — commit as a no-op under a fresh epoch.
	CommitBump
	// The aborts lift the fence under a fresh epoch, placement unchanged.
	AbortNotDrained
	AbortFenceExpired
	AbortRegainedLease
	AbortDestinationLeft
)

func (v CommitVerdict) String() string {
	return [...]string{"override installed", "already placed on the destination", "source leases did not drain in time",
		"fence expired before commit", "source regained a lease before commit",
		"destination left the ring mid-drain"}[v]
}

// Aborted reports whether the verdict leaves placement unchanged.
func (v CommitVerdict) Aborted() bool { return v >= AbortNotDrained }

// Commit judges the commit step. All of its inputs must be sensed, and
// its verdict applied, inside one critical section of whatever lock
// serialises placement resolution: srcLeases is a re-probe of the source
// (a resolver that placed the key pre-fence may have been granted after
// the drain's last look), and holding the lock from that probe through
// the override install makes a grant landing afterwards run its
// post-grant check against the committed override and release itself.
//
// The fence is only trustworthy while its deadline holds: past it,
// acquires may already have resolved to the source and been granted
// there without tripping the post-grant check, so a drain observation
// that squeaked in just before expiry proves nothing about the present.
func (m *Migration) Commit(now int64, drained bool, srcLeases int, dstInRing bool, placedAt int) CommitVerdict {
	switch {
	case !drained:
		return AbortNotDrained
	case now >= m.Deadline:
		return AbortFenceExpired
	case srcLeases != 0:
		return AbortRegainedLease
	case !dstInRing:
		return AbortDestinationLeft
	case placedAt == m.Dst:
		return CommitBump
	}
	return CommitOverride
}
