package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/msgpass"
	"mcdp/internal/wire"
)

// clientLog is what one client of the load generator saw. Each client
// owns its log while it runs; logs are merged after every client stopped.
type clientLog struct {
	samples    []sample
	late       []time.Duration // open loop: send time minus due time
	attempted  int64
	failed     int64
	failCodes  map[int]int64 // 408, 429, 409, 503; 0 collects everything else
	violations []string
}

func (l *clientLog) fail(op string, err error) {
	l.failed++
	if l.failCodes == nil {
		l.failCodes = map[int]int64{}
	}
	code := 0
	var we *wire.Error
	if errors.As(err, &we) {
		switch we.Code {
		case 408, 429, 409, 503:
			code = int(we.Code)
		}
	}
	l.failCodes[code]++
	if l.failCodes[code] == 1 { // one example per code is enough to act on
		fmt.Printf("# %s failed (code %d): %v\n", op, code, err)
	}
}

func (l *clientLog) merge(o *clientLog) {
	l.samples = append(l.samples, o.samples...)
	l.late = append(l.late, o.late...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.violations = append(l.violations, o.violations...)
	for code, n := range o.failCodes {
		if l.failCodes == nil {
			l.failCodes = map[int]int64{}
		}
		l.failCodes[code] += n
	}
}

// generator drives one workload against one service instance.
type generator struct {
	w      workload
	svc    *service
	tr     *tracer // nil on untraced runs
	ledger *ledger
	nextID atomic.Uint64

	windowStart, windowEnd time.Time
}

// acquire and release are the only two calls the generator makes into
// the service; on a traced run they also record the client-side spans.
func (g *generator) acquire(ctx context.Context, id uint64, keys []string) (*wire.Grant, error) {
	if g.tr == nil {
		return g.svc.cl.Acquire(ctx, keys, acquireTimeout, ttlFor(id))
	}
	g.tr.inflight[id&tagMask].Store(id)
	start := g.tr.now()
	grant, err := g.svc.cl.Acquire(ctx, keys, acquireTimeout, ttlFor(id))
	g.tr.add(clientAcquire, id, start, g.tr.now())
	return grant, err
}

func (g *generator) release(ctx context.Context, id uint64, session string) error {
	if g.tr == nil {
		return g.svc.cl.Release(ctx, session)
	}
	start := g.tr.now()
	err := g.svc.cl.Release(ctx, session)
	g.tr.add(clientRelease, id, start, g.tr.now())
	return err
}

// spanParts is how many shards a grant's session id says it spans.
func spanParts(session string) int {
	if rest, ok := strings.CutPrefix(session, "span:"); ok {
		return strings.Count(rest, "+") + 1
	}
	return 1
}

// do runs one request to completion — acquire, check against the
// ledger, hold, release — and returns when the grant arrived. ok is
// false when either call failed; such a request yields no latency sample
// and counts as failed.
func (g *generator) do(ctx context.Context, req request, log *clientLog) (granted time.Time, ok bool) {
	id := g.nextID.Add(1)
	log.attempted++
	grant, err := g.acquire(ctx, id, req.keys)
	granted = time.Now()
	if err != nil {
		log.fail("acquire", err)
		return granted, false
	}
	g.ledger.granted(req.locks, grant.SessionID)
	if n := spanParts(grant.SessionID); n != req.shards {
		log.violations = append(log.violations,
			fmt.Sprintf("grant %s for %v covers %d shards, want %d", grant.SessionID, req.keys, n, req.shards))
	}
	if g.w.hold > 0 {
		time.Sleep(g.w.hold)
	}
	g.ledger.released(req.locks, grant.SessionID)
	if err := g.release(ctx, id, grant.SessionID); err != nil {
		log.fail("release", err)
		return granted, false
	}
	return granted, true
}

// clientSeed derives a client's draw seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 }

// closedLoop runs w.clients callers, each sending its next request only
// after the previous one completed, until the window ends.
func (g *generator) closedLoop(ctx context.Context, seed int64) *clientLog {
	logs := make([]clientLog, g.w.clients)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log := &logs[i]
			rng := rand.New(rand.NewSource(clientSeed(seed, i)))
			for {
				sent := time.Now()
				if !sent.Before(g.windowEnd) {
					return
				}
				req := g.svc.cat.draw(rng)
				if granted, ok := g.do(ctx, req, log); ok {
					log.samples = append(log.samples,
						sample{at: granted.Sub(g.windowStart), lat: granted.Sub(sent), wide: req.wide})
				}
			}
		}(i)
	}
	wg.Wait()
	total := &clientLog{}
	for i := range logs {
		total.merge(&logs[i])
	}
	return total
}

// openLoop sends requests on a seeded Poisson schedule at w.rate,
// whether or not earlier ones have completed: each request runs on its
// own goroutine, is timed from the instant it was due, and the gap
// between due and sent is reported as the generator's lateness.
func (g *generator) openLoop(ctx context.Context, seed int64) *clientLog {
	rng := rand.New(rand.NewSource(clientSeed(seed, 0)))
	var (
		mu    sync.Mutex
		total clientLog
		wg    sync.WaitGroup
	)
	due := time.Now()
	for due.Before(g.windowEnd) {
		time.Sleep(time.Until(due))
		req := g.svc.cat.draw(rng)
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			sent := time.Now()
			var log clientLog
			if due.After(g.windowStart) {
				log.late = append(log.late, sent.Sub(due))
			}
			if granted, ok := g.do(ctx, req, &log); ok {
				log.samples = append(log.samples, openSample(g.windowStart, due, granted, req.wide))
			}
			mu.Lock()
			total.merge(&log)
			mu.Unlock()
		}(due)
		due = due.Add(time.Duration(rng.ExpFloat64() / g.w.rate * float64(time.Second)))
	}
	wg.Wait()
	return &total
}

// faultSchedule crashes the victim of every shard maliciously at the
// first third of the window and restarts each from an arbitrary state at
// the second, then probes a lock next to a victim until it is granted
// again. It returns the time from restart to that grant (0 if the window
// ended first).
func (g *generator) faultSchedule(ctx context.Context) (recovered time.Duration, err error) {
	third := g.windowEnd.Sub(g.windowStart) / 3
	rt := g.svc.rt
	time.Sleep(time.Until(g.windowStart.Add(third)))
	for s := 0; s < rt.Shards(); s++ {
		if err := rt.Shard(s).InjectCrash(crashVictim, crashSteps); err != nil {
			return 0, fmt.Errorf("inject crash on shard %d: %w", s, err)
		}
	}
	time.Sleep(time.Until(g.windowStart.Add(2 * third)))
	for s := 0; s < rt.Shards(); s++ {
		if _, err := rt.Shard(s).RestartNode(crashVictim, msgpass.RestartArbitrary); err != nil {
			return 0, fmt.Errorf("restart victim of shard %d: %w", s, err)
		}
	}
	restarted := time.Now()
	// Every shard has the same topology and the same victim, so whichever
	// shard the ring places this name on, it is a lock next to a victim.
	g0 := rt.Shard(0).Graph()
	near := []string{lockservice.EdgeName(g0.Edges()[g0.IncidentEdgeIndices(crashVictim)[0]])}
	// The probe is a measurement, not part of the workload: one acquire
	// that waits, for as long as the window lasts, until the victim's
	// neighbourhood grants again. It is not counted as attempted or failed.
	grant, err := g.svc.cl.Acquire(ctx, near, time.Until(g.windowEnd), 0)
	if err != nil {
		return 0, nil
	}
	recovered = time.Since(restarted)
	if err := g.svc.cl.Release(ctx, grant.SessionID); err != nil {
		return recovered, fmt.Errorf("release recovery probe: %w", err)
	}
	return recovered, nil
}

// sampleQueues reads every shard's arbiter queue depths at 20 Hz over
// the window and returns the total queued sessions at each reading.
func (g *generator) sampleQueues() []float64 {
	var depths []float64
	time.Sleep(time.Until(g.windowStart))
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		if !time.Now().Before(g.windowEnd) {
			return depths
		}
		total := 0
		for i := 0; i < g.svc.rt.Shards(); i++ {
			for _, d := range g.svc.rt.Shard(i).Arbiter().QueueDepths() {
				total += d
			}
		}
		depths = append(depths, float64(total))
	}
	return depths
}
