package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"mcdp/internal/wire"
)

// counters is a reading of every public counter the per-layer ratios are
// made of; a run takes one at each end of the window and reports deltas.
type counters struct {
	msgs, eats                   int64
	cpu                          time.Duration
	mallocs, allocBytes          uint64
	numGC                        uint32
	acquires, timeouts, fullQs   int64
	spans, rollbacks             int64
	ops, retries, entries, write int64
	entriesIn, framesIn          int64
}

// rusage reads the process's CPU time so far and its peak resident set
// in MB (Linux reports ru_maxrss in KiB).
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

func (s *service) readCounters(ms *runtime.MemStats) counters {
	runtime.ReadMemStats(ms)
	cpu, _ := rusage()
	c := counters{
		cpu:        cpu,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
	for i := 0; i < s.rt.Shards(); i++ {
		sh := s.rt.Shard(i)
		c.msgs += sh.Network().MessagesSent()
		for _, e := range sh.Network().Eats() {
			c.eats += e
		}
		m := sh.Metrics()
		c.acquires += m.AcquireRequests.Load()
		c.timeouts += m.RejectedTimeout.Load()
		c.fullQs += m.RejectedQueueFull.Load()
	}
	rm := s.rt.Metrics()
	c.spans, c.rollbacks = rm.SpanAcquires.Load(), rm.SpanRollbacks.Load()
	cs := s.cl.Stats()
	c.ops, c.retries = cs.Ops.Load(), cs.Retries.Load()
	c.entries, c.write = cs.BatchedEntries.Load(), cs.Writes.Load()
	ss := s.ws.Stats()
	c.entriesIn, c.framesIn = ss.EntriesIn.Load(), ss.FramesIn.Load()
	return c
}

// maxGCPause is the longest stop-the-world pause among the collections
// numbered (from, to]; the runtime keeps the last 256.
func maxGCPause(ms *runtime.MemStats, from, to uint32) time.Duration {
	if to-from > uint32(len(ms.PauseNs)) {
		from = to - uint32(len(ms.PauseNs))
	}
	var worst uint64
	for n := from + 1; n <= to; n++ {
		if p := ms.PauseNs[(n+255)%256]; p > worst {
			worst = p
		}
	}
	return time.Duration(worst)
}

// runResult is one run of one workload: its readings and what the
// generator's clients logged (requests attempted and failed, violations).
type runResult struct {
	metrics   readings
	log       *clientLog
	tracePath string
}

func (r *runResult) correct() bool { return len(r.log.violations) == 0 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWorkload sets the service up, drives w against it for a discarded
// warm-up plus a measured window, checks the outcome and tears it down.
// With tr non-nil the run is traced and the per-layer readings that come
// from spans are filled in.
func runWorkload(w workload, seed int64, window time.Duration, tr *tracer) (*runResult, error) {
	var wrap func(wire.Backend) wire.Backend
	if tr != nil {
		wrap = tr.wrap
	}
	svc, setup, err := measureSetup(w, wrap)
	if err != nil {
		return nil, err
	}
	defer svc.stop()

	g := &generator{w: w, svc: svc, tr: tr, ledger: newLedger()}
	g.windowStart = time.Now().Add(warmupFor(window))
	g.windowEnd = g.windowStart.Add(window)
	ctx, cancel := context.WithDeadline(context.Background(), g.windowEnd.Add(30*time.Second))
	defer cancel()

	logCh := make(chan *clientLog, 1)
	go func() {
		if w.rate > 0 {
			logCh <- g.openLoop(ctx, seed)
		} else {
			logCh <- g.closedLoop(ctx, seed)
		}
	}()
	depthCh := make(chan []float64, 1)
	go func() { depthCh <- g.sampleQueues() }()
	type recovery struct {
		after time.Duration
		err   error
	}
	recCh := make(chan recovery, 1)
	go func() {
		if !w.crash {
			recCh <- recovery{}
			return
		}
		after, err := g.faultSchedule(ctx)
		recCh <- recovery{after, err}
	}()

	var ms runtime.MemStats
	time.Sleep(time.Until(g.windowStart))
	c0 := svc.readCounters(&ms)
	time.Sleep(time.Until(g.windowEnd))
	c1 := svc.readCounters(&ms)
	gcPause := maxGCPause(&ms, c0.numGC, c1.numGC)

	log, depths, rec := <-logCh, <-depthCh, <-recCh
	if rec.err != nil {
		return nil, rec.err
	}

	res := &runResult{metrics: readings{}, log: log}
	ledgerFaults, held := g.ledger.report()
	log.violations = append(log.violations, ledgerFaults...)
	if held != 0 {
		log.violations = append(log.violations, fmt.Sprintf("ledger: %d locks still recorded as held after every client stopped", held))
	}
	leaked := svc.leasesLeaked()
	if leaked != 0 {
		log.violations = append(log.violations, fmt.Sprintf("service still holds %d leases after every client released", leaked))
	}

	m := res.metrics
	m["setup_s"] = setup
	endToEndReadings(m, w, log, window)

	grants := 0.0
	for _, s := range log.samples {
		if s.at >= 0 && s.at < window {
			grants++
		}
	}
	m["wire.entries_per_write"] = reading{Value: ratio(float64(c1.entries-c0.entries), float64(c1.write-c0.write))}
	m["wire.entries_per_frame_in"] = reading{Value: ratio(float64(c1.entriesIn-c0.entriesIn), float64(c1.framesIn-c0.framesIn))}
	m["wire.retries_per_op"] = reading{Value: ratio(float64(c1.retries-c0.retries), float64(c1.ops-c0.ops))}
	m["lockservice.span_rollbacks_per_span"] = reading{Value: ratio(float64(c1.rollbacks-c0.rollbacks), float64(c1.spans-c0.spans))}
	m["lockservice.rejected_timeout_share"] = reading{Value: ratio(float64(c1.timeouts-c0.timeouts), float64(c1.acquires-c0.acquires))}
	m["lockservice.rejected_queue_full_share"] = reading{Value: ratio(float64(c1.fullQs-c0.fullQs), float64(c1.acquires-c0.acquires))}
	m["lockservice.leases_leaked"] = reading{Value: float64(leaked)}
	depth := medianIQR(depths)
	sum, max := 0.0, 0.0
	for _, d := range depths {
		sum += d
		if d > max {
			max = d
		}
	}
	m["drinkers.queue_depth_mean"] = reading{Value: ratio(sum, float64(len(depths))), IQR: depth.IQR, N: depth.N}
	m["drinkers.queue_depth_max"] = reading{Value: max, N: depth.N}
	m["msgpass.msgs_per_grant"] = reading{Value: ratio(float64(c1.msgs-c0.msgs), grants)}
	m["msgpass.eats_per_grant"] = reading{Value: ratio(float64(c1.eats-c0.eats), grants)}
	m["msgpass.recover_ms"] = reading{Value: float64(rec.after) / float64(time.Millisecond)}
	m["proc.cpu_us_per_grant"] = reading{Value: ratio(float64(c1.cpu-c0.cpu)/float64(time.Microsecond), grants)}
	m["proc.alloc_bytes_per_grant"] = reading{Value: ratio(float64(c1.allocBytes-c0.allocBytes), grants)}
	m["proc.allocs_per_grant"] = reading{Value: ratio(float64(c1.mallocs-c0.mallocs), grants)}
	m["proc.gc_pause_ms_max"] = reading{Value: float64(gcPause) / float64(time.Millisecond), N: int(c1.numGC - c0.numGC)}
	_, peakRSS := rusage()
	m["proc.rss_mb_peak"] = reading{Value: peakRSS}
	m["loadgen.late_p99_ms"] = reading{Value: percentileOf(log.late, 0.99, time.Millisecond), N: len(log.late)}
	m["loadgen.late_max_ms"] = reading{Value: percentileOf(log.late, 1, time.Millisecond), N: len(log.late)}

	log.samples, log.late = nil, nil // folded into the readings above

	if tr != nil {
		lt := tr.selfTimes(g.windowStart, g.windowEnd)
		m["wire.self_us_p50"] = reading{Value: percentileOf(lt.wireSelf, 0.5, time.Microsecond), N: len(lt.wireSelf)}
		m["lockservice.self_us_p50"] = reading{Value: percentileOf(lt.serviceSelf, 0.5, time.Microsecond), N: len(lt.serviceSelf)}
		m["lockservice.wait_us_p50"] = reading{Value: percentileOf(lt.wait, 0.5, time.Microsecond), N: len(lt.wait)}
		m["lockservice.wait_us_p99"] = reading{Value: percentileOf(lt.wait, 0.99, time.Microsecond), N: len(lt.wait)}
		m["lockservice.release_us_p50"] = reading{Value: percentileOf(lt.release, 0.5, time.Microsecond), N: len(lt.release)}
		if res.tracePath, err = tr.writeFile(w.name, seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// endToEndReadings fills in the metrics a user of the service would see.
// Rates and latencies are medians over the window's slices. crash_open
// reports them from the slices of the crashed phase (the middle third),
// which is where the paper's promise is on trial; the other workloads use
// every slice.
func endToEndReadings(m readings, w workload, log *clientLog, window time.Duration) {
	var wide []sample
	for _, s := range log.samples {
		if s.wide {
			wide = append(wide, s)
		}
	}
	all := cutSlices(log.samples, window, slicesPerRun)
	fmt.Printf("# %s per-slice grants_per_s %.0f\n# %s per-slice grant_mid_ms %.3f\n# %s per-slice grant_p99_ms %.3f\n",
		w.name, all.rate, w.name, all.mid, w.name, all.p99)
	const third = slicesPerRun / 3
	lo, hi := 0, slicesPerRun
	if w.crash {
		lo, hi = third, 2*third
	}
	m["grants_per_s"] = medianIQR(all.rate[lo:hi])
	m["grant_mid_ms"] = medianIQR(all.mid[lo:hi])
	m["loadgen.grant_p50_ms"] = medianIQR(all.p50[lo:hi])
	m["grant_p99_ms"] = medianIQR(all.p99[lo:hi])
	ws := cutSlices(wide, window, slicesPerRun)
	m["wide_mid_ms"] = medianIQR(ws.mid[lo:hi])
	m["wide_p99_ms"] = medianIQR(ws.p99[lo:hi])
	before, during := medianIQR(all.p99[:third]), medianIQR(all.p99[third:2*third])
	m["fault_p99_ratio"] = reading{Value: ratio(during.Value, before.Value), N: before.N + during.N}
	m["ok_share"] = reading{Value: 1 - ratio(float64(log.failed), float64(log.attempted)), N: int(log.attempted)}
}
