package stats

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestFamiliesCollectAndWrite(t *testing.T) {
	var hits atomic.Int64
	hits.Store(1234567) // past the point where %g would switch to an exponent
	h := NewLatencyHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var tbl Families
	tbl.Register(func() []Family {
		return []Family{
			Counter("t_hits_total", "Hits.", hits.Load),
			Gauge("t_ratio", "A ratio.", func() float64 { return 0.125 }),
			Vec("gauge", "t_depth", "Depth per node.", "node", func() []float64 { return []float64{3, 0} }),
			Hist("t_wait_seconds", "Wait.", h),
		}
	})
	var sb strings.Builder
	Write(&sb, tbl.Collect())
	want := `# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total 1234567
# HELP t_ratio A ratio.
# TYPE t_ratio gauge
t_ratio 0.125
# HELP t_depth Depth per node.
# TYPE t_depth gauge
t_depth{node="0"} 3
t_depth{node="1"} 0
# HELP t_wait_seconds Wait.
# TYPE t_wait_seconds histogram
t_wait_seconds_bucket{le="0.5"} 1
t_wait_seconds_bucket{le="1"} 1
t_wait_seconds_bucket{le="+Inf"} 2
t_wait_seconds_sum 2.25
t_wait_seconds_count 2
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestSumMergesStructuredSamples: summing two collections adds samples
// with the same suffix and labels, keeps differently-labelled ones
// apart, and appends families only one side has.
func TestSumMergesStructuredSamples(t *testing.T) {
	shard := func(n float64, label string) []Snapshot {
		return []Snapshot{
			{Family: Family{Name: "grants", Type: "counter"}, Samples: []Sample{{Value: n}}},
			{Family: Family{Name: "eats", Type: "counter", Label: "node"}, Samples: []Sample{{Labels: label, Value: n}}},
		}
	}
	got := Sum([]Snapshot{{Family: Family{Name: "ring_gen", Type: "gauge"}, Samples: []Sample{{Value: 7}}}},
		shard(2, `node="0",shard="0"`))
	got = Sum(got, shard(3, `node="0",shard="1"`))
	if len(got) != 3 || got[0].Name != "ring_gen" || got[1].Name != "grants" || got[2].Name != "eats" {
		t.Fatalf("families after Sum: %+v", got)
	}
	if s := got[1].Samples; len(s) != 1 || s[0].Value != 5 {
		t.Fatalf("unlabelled counter not summed: %+v", s)
	}
	if s := got[2].Samples; len(s) != 2 || s[0].Value != 2 || s[1].Value != 3 {
		t.Fatalf("per-shard samples not kept apart: %+v", s)
	}
}

// TestFamiliesBuildOnFirstCollect: a registration is built by the
// first Collect after it, once, and keeps its place among the
// registrations around it, also when it comes after a Collect.
func TestFamiliesBuildOnFirstCollect(t *testing.T) {
	var tbl Families
	builds := map[string]int{}
	gauge := func(name string) func() []Family {
		return func() []Family {
			builds[name]++
			return []Family{Gauge(name, "A gauge.", func() float64 { return 1 })}
		}
	}
	tbl.Register(gauge("t_first"))
	tbl.Register(gauge("t_second"))
	if len(builds) != 0 {
		t.Fatalf("Register built families before any Collect: %v", builds)
	}
	names := func() string {
		var names []string
		for _, s := range tbl.Collect() {
			names = append(names, s.Name)
		}
		return strings.Join(names, " ")
	}
	if got := names(); got != "t_first t_second" {
		t.Fatalf("first collect: families %q, want registration order", got)
	}
	tbl.Register(gauge("t_late"))
	for i := 0; i < 2; i++ {
		if got := names(); got != "t_first t_second t_late" {
			t.Fatalf("collect %d after a late registration: families %q, want registration order", i, got)
		}
	}
	for name, n := range builds {
		if n != 1 {
			t.Fatalf("three collects built %s %d times, want once", name, n)
		}
	}
}
