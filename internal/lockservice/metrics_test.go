package lockservice

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/wire"
)

// expositionKeys reduces an exposition to its sorted schema: HELP/TYPE
// lines whole, sample lines with the value stripped (name + labels).
func expositionKeys(text string) []string {
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		keys = append(keys, line)
	}
	sort.Strings(keys)
	return keys
}

// TestExpositionGolden pins the /metrics schema: the golden was
// captured at the commit before the families table existed (Router
// text-merge + Server Fprintf lines + the wire listener's appended
// block), from a quiescent 2-shard/1-standby Router with a wire
// listener. Every family name, type, help string and label set must be
// served unchanged — no series renamed, dropped or relabelled.
func TestExpositionGolden(t *testing.T) {
	rt := NewRouter(RouterConfig{Shards: 2, Replicas: 1, Base: fastConfig(graph.Grid(2, 2))})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	wire.NewServer(wire.ServerConfig{Backend: rt.WireBackend()}).Register(rt.Families())
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics_exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(expositionKeys(buf.String()), "\n") + "\n"
	if got != string(want) {
		t.Fatalf("/metrics schema drifted from the golden.\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "missing: "+l)
		case n < 0:
			out = append(out, "extra:   "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestDocsMetricsTable keeps docs/DINERD.md honest: the name column of
// its /metrics table (labels stripped) is exactly MetricNames().
func TestDocsMetricsTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/DINERD.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, line := range strings.Split(string(doc), "\n") {
		cell, ok := strings.CutPrefix(line, "| dinerd_")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut("dinerd_"+cell, " ")
		name, _, _ = strings.Cut(name, "{")
		documented = append(documented, name)
	}
	sort.Strings(documented)
	if want := MetricNames(); !reflect.DeepEqual(documented, want) {
		t.Fatalf("docs/DINERD.md /metrics table lists %d families, MetricNames() has %d:\n%s",
			len(documented), len(want), lineDiff(strings.Join(want, "\n"), strings.Join(documented, "\n")))
	}
}
