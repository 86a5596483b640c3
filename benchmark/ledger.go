package main

import (
	"fmt"
	"hash/maphash"
	"sync"
)

// ledger is the correctness oracle inside the load generator: a shadow
// record of which session holds which lock, fed by every client on every
// grant (right after it) and release (right before it). Two sessions
// recorded on one lock at once is a mutual-exclusion violation by the
// service. It is sharded by lock so 64 clients do not serialise on it.
type ledger struct {
	seed   maphash.Seed
	shards [64]ledgerShard
}

type ledgerShard struct {
	mu         sync.Mutex
	holder     map[string]string // lock -> session holding it
	violations []string
}

func newLedger() *ledger {
	l := &ledger{seed: maphash.MakeSeed()}
	for i := range l.shards {
		l.shards[i].holder = make(map[string]string)
	}
	return l
}

func (l *ledger) shard(lock string) *ledgerShard {
	return &l.shards[maphash.String(l.seed, lock)%uint64(len(l.shards))]
}

func (l *ledger) granted(locks []string, session string) {
	for _, lock := range locks {
		sh := l.shard(lock)
		sh.mu.Lock()
		if prev, held := sh.holder[lock]; held && prev != session {
			sh.violations = append(sh.violations,
				fmt.Sprintf("lock %s granted to %s while held by %s", lock, session, prev))
		} else {
			sh.holder[lock] = session
		}
		sh.mu.Unlock()
	}
}

func (l *ledger) released(locks []string, session string) {
	for _, lock := range locks {
		sh := l.shard(lock)
		sh.mu.Lock()
		if sh.holder[lock] == session {
			delete(sh.holder, lock)
		}
		sh.mu.Unlock()
	}
}

// report returns every violation seen and how many locks are still
// recorded as held (0 once all clients have released).
func (l *ledger) report() (violations []string, held int) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		violations = append(violations, sh.violations...)
		held += len(sh.holder)
		sh.mu.Unlock()
	}
	return violations, held
}
