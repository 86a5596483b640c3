package main

import (
	"math"
	"sort"
	"time"

	"mcdp/internal/stats"
)

// sample is one granted request as the load generator saw it.
type sample struct {
	// at is when the request counts, measured from the start of the
	// window: its completion in a closed loop, its due time in an open
	// loop (so a request due during a fault is charged to that fault).
	at time.Duration
	// lat is the grant latency. In an open loop it runs from the due
	// time, not from when the generator got round to sending.
	lat  time.Duration
	wide bool // belongs to the workload's widest request class
}

// openSample charges an open-loop request to the instant it was due:
// the latency runs from the due time, so time spent waiting for a late
// generator or behind a stalled predecessor is counted, and the request
// lands in the slice (and fault phase) it was due in.
func openSample(windowStart, due, granted time.Time, wide bool) sample {
	return sample{at: due.Sub(windowStart), lat: granted.Sub(due), wide: wide}
}

// medianIQR returns the median, inter-quartile range and size of xs.
func medianIQR(xs []float64) reading {
	if len(xs) == 0 {
		return reading{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return reading{
		Value: stats.Percentile(s, 0.5),
		IQR:   stats.Percentile(s, 0.75) - stats.Percentile(s, 0.25),
		N:     len(s),
	}
}

// sliceStats holds one value per slice of the window for each of the
// three things measured per slice. Slices are what every timing and rate
// metric is a median over, because a single steal stall of 40-200 ms
// moves a whole-window p99 by several times while it touches one slice.
type sliceStats struct {
	rate, mid, p50, p99 []float64
}

// interquartileMean is the mean of the middle half of an ascending
// sample. For a one-humped distribution it sits next to the median; the
// benchmark reports it instead because saturate's grant latency has two
// humps (a grant either finds its worker already eating, ~0.3 ms, or
// waits for the worker's next turn, ~6 ms) with the median on the cliff
// between them, where a 1 % shift in the mix moves the median by 0.2 ms.
func interquartileMean(sorted []float64) float64 {
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	sum := 0.0
	for _, x := range sorted[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// cutSlices cuts [0, window) into n equal slices and computes the grant
// rate and the latency statistics (ms) of the samples in each. A slice
// with no grant at all has no latency to report; it reads +Inf, so that
// a median over mostly empty slices is visibly not a measurement.
func cutSlices(samples []sample, window time.Duration, n int) sliceStats {
	width := window / time.Duration(n)
	lats := make([][]float64, n)
	for _, s := range samples {
		if s.at < 0 || s.at >= width*time.Duration(n) {
			continue
		}
		i := int(s.at / width)
		lats[i] = append(lats[i], float64(s.lat)/float64(time.Millisecond))
	}
	var out sliceStats
	for _, l := range lats {
		out.rate = append(out.rate, float64(len(l))/width.Seconds())
		if len(l) == 0 {
			out.mid = append(out.mid, math.Inf(1))
			out.p50 = append(out.p50, math.Inf(1))
			out.p99 = append(out.p99, math.Inf(1))
			continue
		}
		sort.Float64s(l)
		out.mid = append(out.mid, interquartileMean(l))
		out.p50 = append(out.p50, stats.Percentile(l, 0.50))
		out.p99 = append(out.p99, stats.Percentile(l, 0.99))
	}
	return out
}

// percentileOf returns the q-quantile of durations in the given unit.
func percentileOf(ds []time.Duration, q float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	return stats.Percentile(xs, q)
}
