package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// checkReport asserts that out names every metric of defs on exactly one
// metric line, with its unit, and that the closing JSON line carries
// exactly those metrics and the four keys of the result contract.
func checkReport(t *testing.T, w workload, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, d := range defs {
		seen := 0
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) >= 4 && f[0] == w.name && f[1] == d.Name {
				seen++
				if f[3] != d.Unit {
					t.Errorf("%s: %s printed with unit %q, want %q", w.name, d.Name, f[3], d.Unit)
				}
			}
		}
		if seen != 1 {
			t.Errorf("%s: %s printed %d times, want once", w.name, d.Name, seen)
		}
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v\n%s", w.name, err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("%s: result lacks key %q", w.name, k)
		}
	}
	if len(res) != 4 {
		t.Errorf("%s: result has %d keys, want 4", w.name, len(res))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatalf("%s: metrics: %v", w.name, err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%s: result carries %d metrics, want %d", w.name, len(metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := metrics[d.Name]
		if !ok || got.Value == nil || got.Unit != d.Unit {
			t.Errorf("%s: result metric %s = %+v, want a value in %s", w.name, d.Name, got, d.Unit)
		}
	}
	if string(res["correct"]) != "true" {
		t.Errorf("%s: run reported incorrect:\n%s", w.name, out)
	}
}

func testWindow() time.Duration {
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return time.Second
}

func TestEveryWorkloadPrintsEveryEndToEndMetricOnce(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, 1, testWindow(), nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.log.failed != 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.name, res.log.failed, res.log.attempted, res.log.failCodes)
		}
		var out bytes.Buffer
		report(&out, w, res, endToEnd)
		checkReport(t, w, out.String(), endToEnd)
		for _, d := range endToEnd {
			if v := res.metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics must never read 0", w.name, d.Name, v)
			}
		}
	}
}

func TestTracedRunPrintsEveryPerLayerMetricOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("the isolated layer drives take a few seconds")
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the trace file goes to ./out
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	w, _ := workloadByName("span_mix")
	res, err := runTraced(w, 1, 2*testWindow())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, w, res, perLayer)
	checkReport(t, w, out.String(), perLayer)

	// Every request's spans share its id, and the layers nest: the
	// backend span lies inside the client span that caused it.
	raw, err := os.ReadFile(res.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []struct {
			Name, Parent string
			ID           uint64
			Start, End   int64
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	type window struct{ start, end int64 }
	clients := map[uint64]window{}
	for _, s := range file.Spans {
		if s.Name == "client.acquire" {
			clients[s.ID] = window{s.Start, s.End}
		}
	}
	nested := 0
	for _, s := range file.Spans {
		if s.Name != "backend.acquire" || s.ID == 0 {
			continue
		}
		c, ok := clients[s.ID]
		if !ok || s.Parent != "client.acquire" || s.Start < c.start || s.End > c.end {
			t.Fatalf("backend.acquire %+v does not nest in its client span %+v", s, c)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no backend span was matched to a client span")
	}
}

// The negative control: a ledger that cannot see a double grant proves
// nothing by staying silent.
func TestLedgerFlagsADoubleGrant(t *testing.T) {
	l := newLedger()
	l.granted([]string{"k0/e3", "k0/e4"}, "k0:s1")
	l.released([]string{"k0/e3", "k0/e4"}, "k0:s1")
	l.granted([]string{"k0/e3"}, "k0:s2")
	if v, held := l.report(); len(v) != 0 || held != 1 {
		t.Fatalf("clean history: violations %v, held %d", v, held)
	}
	l.granted([]string{"k0/e3"}, "k0:s3")
	v, _ := l.report()
	if len(v) != 1 || !strings.Contains(v[0], "k0:s3") || !strings.Contains(v[0], "k0:s2") {
		t.Fatalf("double grant of k0/e3 not flagged: %v", v)
	}
	// The loser's release must not free the winner's lock.
	l.released([]string{"k0/e3"}, "k0:s3")
	if _, held := l.report(); held != 1 {
		t.Fatalf("held = %d after the second grantee released, want 1", held)
	}
}

func TestSpanPartsCountsShards(t *testing.T) {
	for session, want := range map[string]int{
		"k2:s0000002a-4":                            1,
		"span:k0:s00000001-2+k3:s00000004-1":        2,
		"span:k0:s00000001-2+k1:s1-0+k3:s0000004-1": 3,
	} {
		if got := spanParts(session); got != want {
			t.Errorf("spanParts(%q) = %d, want %d", session, got, want)
		}
	}
}

func TestMedianIQR(t *testing.T) {
	r := medianIQR([]float64{9, 1, 5, 3, 7}) // sorted 1 3 5 7 9
	if r.Value != 5 || r.IQR != 4 || r.N != 5 {
		t.Errorf("odd sample: %+v, want median 5 iqr 4 n 5", r)
	}
	r = medianIQR([]float64{4, 1, 3, 2}) // quartiles interpolate: 1.75, 2.5, 3.25
	if r.Value != 2.5 || math.Abs(r.IQR-1.5) > 1e-12 || r.N != 4 {
		t.Errorf("even sample: %+v, want median 2.5 iqr 1.5 n 4", r)
	}
	if r := medianIQR(nil); r != (reading{}) {
		t.Errorf("empty sample: %+v, want zero", r)
	}
}

func TestCutSlices(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// Slice 0 ([0,1s)): 100 grants of 1..100 ms. Slice 1: none. Slice 2: one
	// 7 ms grant. Outside the window: ignored.
	for i := 1; i <= 100; i++ {
		samples = append(samples, sample{at: time.Duration(i) * 5 * ms, lat: time.Duration(i) * ms})
	}
	samples = append(samples,
		sample{at: 2500 * ms, lat: 7 * ms},
		sample{at: -10 * ms, lat: time.Hour},
		sample{at: 3000 * ms, lat: time.Hour})
	s := cutSlices(samples, 3*time.Second, 3)
	if want := []float64{100, 0, 1}; !equal(s.rate, want) {
		t.Errorf("rate = %v, want %v", s.rate, want)
	}
	if s.p50[0] != 50.5 || math.Abs(s.p99[0]-99.01) > 1e-9 {
		t.Errorf("slice 0 p50 %v p99 %v, want 50.5 and 99.01", s.p50[0], s.p99[0])
	}
	if !math.IsInf(s.p50[1], 1) || !math.IsInf(s.p99[1], 1) {
		t.Errorf("an empty slice must read +Inf, got p50 %v p99 %v", s.p50[1], s.p99[1])
	}
	if s.p50[2] != 7 || s.p99[2] != 7 {
		t.Errorf("slice 2 p50 %v p99 %v, want 7 and 7", s.p50[2], s.p99[2])
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// An open-loop request that was due at 10 ms, got sent at 50 ms because
// the generator stalled, and was granted at 60 ms waited 50 ms, not 10.
func TestOpenLoopLatencyRunsFromTheDueTime(t *testing.T) {
	start := time.Now()
	due := start.Add(10 * time.Millisecond)
	granted := start.Add(60 * time.Millisecond)
	s := openSample(start, due, granted, false)
	if s.lat != 50*time.Millisecond {
		t.Errorf("latency %v, want 50ms (granted - due)", s.lat)
	}
	if s.at != 10*time.Millisecond {
		t.Errorf("sample placed at %v, want the due time 10ms", s.at)
	}
}

// BENCHMARK.json at the root of the repository is the contract other
// changes are judged by; it must say what the program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, program has %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program (must be in (0, 0.25])", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
}
