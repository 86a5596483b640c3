// Command benchmark is the repository's benchmark: it starts the real
// lock service in-process (Router -> wire listener on loopback -> wire
// client), drives one of four named workloads against it from the same
// process, checks every grant against a shadow ledger, and prints every
// metric by name with its unit. README.md describes the workloads, the
// metrics and which layer is expected to move which number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured window BENCHMARK.json asks the driver
// for (run_seconds).
const defaultSeconds = 30

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: solo, saturate, span_mix or crash_open (default: all four)")
		seed    = flag.Int64("seed", 1, "seed for key, pair and span draws, the open-loop schedule and the service's Config.Seed")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1: spend the window on an untraced and a traced half, drive each layer in isolation, print the per-layer metrics and write out/trace-<workload>.json")
		check   = flag.Bool("check", false, "run everything twice and fail if an end-to-end metric of the second set differs from the first by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	runtime.GOMAXPROCS(procs())
	fmt.Printf("# seed=%d GOMAXPROCS=%d wire_conns<=%d nproc=%d %s window=%ds warmup=%s slices=%d\n",
		*seed, procs(), procs(), runtime.NumCPU(), runtime.Version(), *seconds, warmupFor(time.Duration(*seconds)*time.Second), slicesPerRun)

	window := time.Duration(*seconds) * time.Second
	runSet := func() ([]*runResult, bool) {
		var set []*runResult
		ok := true
		for _, w := range selected {
			var res *runResult
			var err error
			defs := endToEnd
			if *trace == 1 {
				res, err = runTraced(w, *seed, window)
				defs = perLayer
			} else {
				res, err = runWorkload(w, *seed, window, nil)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			report(os.Stdout, w, res, defs)
			ok = ok && res.correct()
			set = append(set, res)
		}
		return set, ok
	}

	first, ok := runSet()
	if *check {
		second, ok2 := runSet()
		ok = ok && ok2 && compareSets(selected, first, second)
	}
	if !ok {
		os.Exit(1)
	}
}

// spanMetrics are the per-layer metrics computed from recorded spans; in
// a -trace 1 run they come from the traced half and everything else from
// the untraced half, so that counters, CPU and memory are read without
// the tracer in the process's way.
var spanMetrics = []string{
	"wire.self_us_p50", "lockservice.self_us_p50", "lockservice.wait_us_p50",
	"lockservice.wait_us_p99", "lockservice.release_us_p50",
}

// runTraced splits the window into an untraced and a traced run of the
// same workload and seed, and adds the isolated layer drives.
func runTraced(w workload, seed int64, window time.Duration) (*runResult, error) {
	plain, err := runWorkload(w, seed, window/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := runWorkload(w, seed, window/2, newTracer())
	if err != nil {
		return nil, err
	}
	res := plain
	for _, name := range spanMetrics {
		res.metrics[name] = traced.metrics[name]
	}
	res.metrics["trace.overhead_share"] = reading{
		Value: 1 - ratio(traced.metrics["grants_per_s"].Value, plain.metrics["grants_per_s"].Value),
	}
	res.log.merge(traced.log)
	res.tracePath = traced.tracePath
	if err := driveLayers(res.metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// report prints one run: a line per metric, the failures by code, any
// violation, and last the one-line JSON result the driver reads.
func report(o io.Writer, w workload, res *runResult, defs []metricDef) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: res.log.attempted, Failed: res.log.failed, Metrics: map[string]jsonMetric{}}

	for _, d := range defs {
		r, present := res.metrics[d.Name]
		if !present || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			res.log.violations = append(res.log.violations, fmt.Sprintf("metric %s was not measured", d.Name))
			continue
		}
		fmt.Fprintf(o, "%-10s %-40s %14.4f %-6s", w.name, d.Name, r.Value, d.Unit)
		if r.IQR > 0 {
			fmt.Fprintf(o, " iqr %.4f", r.IQR)
		}
		if r.N > 0 {
			fmt.Fprintf(o, " n %d", r.N)
		}
		fmt.Fprintln(o)
		out.Metrics[d.Name] = jsonMetric{r.Value, d.Unit}
	}
	if res.log.failed > 0 {
		var codes []string
		for code, n := range res.log.failCodes {
			label := fmt.Sprint(code)
			if code == 0 {
				label = "other"
			}
			codes = append(codes, fmt.Sprintf("%s=%d", label, n))
		}
		sort.Strings(codes)
		fmt.Fprintf(o, "# %s: %d of %d requests failed (%s)\n", w.name, res.log.failed, res.log.attempted, strings.Join(codes, " "))
	}
	for _, v := range res.log.violations {
		fmt.Fprintf(o, "# %s: VIOLATION: %s\n", w.name, v)
	}
	if res.tracePath != "" {
		fmt.Fprintf(o, "# %s: spans written to %s\n", w.name, res.tracePath)
	}
	out.Correct = res.correct()
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Fprintf(o, "%s\n", line)
}

// compareSets is -check: two sets of runs of the same code must agree on
// every end-to-end metric within the metric's own bound.
func compareSets(ws []workload, first, second []*runResult) bool {
	ok := true
	for i, w := range ws {
		for _, d := range endToEnd {
			a, b := first[i].metrics[d.Name], second[i].metrics[d.Name]
			diff := math.Abs(ratio(b.Value-a.Value, a.Value))
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "DIFFERS", false
			}
			fmt.Printf("check %-10s %-16s first %.4f (iqr %.4f) second %.4f (iqr %.4f) diff %.4f bound %.3f %s\n",
				w.name, d.Name, a.Value, a.IQR, b.Value, b.IQR, diff, d.Bound, verdict)
		}
	}
	return ok
}
