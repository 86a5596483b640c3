package stats

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Family declares one exported metric family once: name, help text,
// Prometheus type, and where its values come from — Values (one sample
// per index, labelled Label="<index>", or a single unlabelled sample
// when Label is empty) or Hist. Build one with Counter, Gauge, Vec or
// Hist.
type Family struct {
	Name, Help string
	Type       string // "counter", "gauge" or "histogram"
	Label      string // "node", "shard", or "" for an unlabelled family
	Values     func() []float64
	Hist       *LatencyHistogram
}

// Counter declares a monotone count read from f at scrape time — an
// atomic.Int64's Load method value, or any closure.
func Counter(name, help string, f func() int64) Family {
	return Family{Name: name, Help: help, Type: "counter", Values: func() []float64 { return []float64{float64(f())} }}
}

// Gauge declares a single point-in-time value.
func Gauge(name, help string, f func() float64) Family {
	return Family{Name: name, Help: help, Type: "gauge", Values: func() []float64 { return []float64{f()} }}
}

// Vec declares a family of typ with one sample per index of f's result,
// labelled label="<index>" (per-node and per-shard series).
func Vec(typ, name, help, label string, f func() []float64) Family {
	return Family{Name: name, Help: help, Type: typ, Label: label, Values: f}
}

// Hist declares a histogram family over h.
func Hist(name, help string, h *LatencyHistogram) Family {
	return Family{Name: name, Help: help, Type: "histogram", Hist: h}
}

// Sample is one exposition line of a family: the series name suffix
// ("" or a histogram's _bucket/_sum/_count), the rendered label pairs
// (`node="3"`; "" for none), and the value.
type Sample struct {
	Suffix, Labels string
	Value          float64
}

// Snapshot is one family's samples at scrape time.
type Snapshot struct {
	Family
	Samples []Sample
}

// Families is a metrics table: every owner of counters registers the
// function that declares its families once at construction, and one
// renderer (Write) produces the exposition. Registration costs the
// owners' hot paths nothing — the declarations are built by the first
// Collect, so an owner that is never scraped (a service started for a
// test or a benchmark run) never builds them, and the sources are only
// read when Collect runs.
type Families struct {
	mu     sync.Mutex
	builds []func() []Family // guarded by mu; registered, not yet built
	list   []Family          // guarded by mu; built, in registration order
}

// Register appends the families build declares. build runs once, on the
// first Collect after it is registered, and must declare the same
// families whenever it runs.
func (t *Families) Register(build func() []Family) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.builds = append(t.builds, build)
}

// Collect reads every family's source, in registration order.
func (t *Families) Collect() []Snapshot {
	t.mu.Lock()
	for _, build := range t.builds {
		t.list = append(t.list, build()...)
	}
	t.builds = nil
	out := make([]Snapshot, len(t.list))
	for i, f := range t.list {
		out[i].Family = f
	}
	t.mu.Unlock()
	for i, f := range out {
		if f.Hist == nil {
			for j, v := range f.Values() {
				labels := ""
				if f.Label != "" {
					labels = f.Label + `="` + strconv.Itoa(j) + `"`
				}
				out[i].Samples = append(out[i].Samples, Sample{"", labels, v})
			}
			continue
		}
		bounds, cum, count, sum := f.Hist.Snapshot()
		for j, b := range bounds {
			out[i].Samples = append(out[i].Samples, Sample{"_bucket", `le="` + strconv.FormatFloat(b, 'g', -1, 64) + `"`, float64(cum[j])})
		}
		out[i].Samples = append(out[i].Samples,
			Sample{"_bucket", `le="+Inf"`, float64(count)}, Sample{"_sum", "", sum}, Sample{"_count", "", float64(count)})
	}
	return out
}

// Sum folds src into dst: a family dst already has gains src's samples,
// values adding where suffix and labels match (which aggregates plain
// counters, gauges and histogram buckets alike); a new family is
// appended. It returns the grown dst.
func Sum(dst, src []Snapshot) []Snapshot {
	for _, s := range src {
		i := 0
		for i < len(dst) && dst[i].Name != s.Name {
			i++
		}
		if i == len(dst) {
			dst = append(dst, Snapshot{Family: s.Family})
		}
	samples:
		for _, x := range s.Samples {
			for j, have := range dst[i].Samples {
				if have.Suffix == x.Suffix && have.Labels == x.Labels {
					dst[i].Samples[j].Value += x.Value
					continue samples
				}
			}
			dst[i].Samples = append(dst[i].Samples, x)
		}
	}
	return dst
}

// Write renders snapshots in the Prometheus text exposition format.
// Whole numbers print without an exponent (a counter past a million
// must stay integer-parseable), everything else in the shortest form
// that round-trips.
func Write(w io.Writer, snaps []Snapshot) {
	for _, f := range snaps {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			labels, value := s.Labels, strconv.FormatFloat(s.Value, 'g', -1, 64)
			if labels != "" {
				labels = "{" + labels + "}"
			}
			if s.Value == math.Trunc(s.Value) && math.Abs(s.Value) < 1e15 {
				value = strconv.FormatInt(int64(s.Value), 10)
			}
			fmt.Fprintf(w, "%s%s%s %s\n", f.Name, s.Suffix, labels, value)
		}
	}
}
