package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/wire"
)

// leaseTTL is the lease every request asks for. The harness adds the low
// bits of its request id to it, in milliseconds: the TTL is the one field
// of an acquire the client controls and the backend sees unchanged (the
// wire's own correlation id is private), so it carries the id across the
// wire for the tracer. Leases are released within milliseconds, so the
// extra 0-65 s of lifetime never matters.
const (
	leaseTTL = 30 * time.Second
	tagBits  = 16
	tagMask  = 1<<tagBits - 1
)

func ttlFor(id uint64) time.Duration {
	return leaseTTL + time.Duration(id&tagMask)*time.Millisecond
}

type spanKind uint8

// The spans of one request, outermost first. A span's parent is the span
// of the same request that caused it.
const (
	clientAcquire spanKind = iota
	backendAcquire
	substrateWait
	clientRelease
	backendRelease
	spanKinds
)

var spanName = [spanKinds]string{"client.acquire", "backend.acquire", "msgpass.wait", "client.release", "backend.release"}
var spanParent = [spanKinds]string{"", "client.acquire", "backend.acquire", "", "client.release"}

type span struct {
	kind       spanKind
	id         uint64 // request id, shared by all spans of one request
	start, end int64  // ns since the tracer's epoch
}

// tracer records spans in memory around the calls into each layer that
// the benchmark can reach from outside: the wire client's calls (wire +
// everything below), the backend the wire listener serves (lockservice +
// everything below) and, from the grant's own Wait field, the time the
// request spent hungry in the diners substrate. Stage clocks inside the
// service are a later change.
type tracer struct {
	epoch    time.Time
	inflight [1 << tagBits]atomic.Uint64 // TTL tag -> id of the request carrying it
	sessions sync.Map                    // session id -> request id, for release spans
	shards   [32]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(kind spanKind, id uint64, start, end int64) {
	sh := &t.shards[id%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{kind, id, start, end})
	sh.mu.Unlock()
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		out = append(out, t.shards[i].spans...)
	}
	return out
}

// wrap decorates the backend a wire listener serves.
func (t *tracer) wrap(b wire.Backend) wire.Backend { return tracedBackend{b, t} }

type tracedBackend struct {
	wire.Backend
	t *tracer
}

func (b tracedBackend) Acquire(ctx context.Context, req wire.AcquireReq) (wire.GrantInfo, error) {
	id := b.t.inflight[uint64((req.TTL-leaseTTL)/time.Millisecond)&tagMask].Load()
	start := b.t.now()
	g, err := b.Backend.Acquire(ctx, req)
	end := b.t.now()
	b.t.add(backendAcquire, id, start, end)
	if err == nil {
		b.t.add(substrateWait, id, end-int64(g.Wait), end)
		b.t.sessions.Store(g.Session, id)
	}
	return g, err
}

func (b tracedBackend) Release(ctx context.Context, session string) error {
	var id uint64
	if v, ok := b.t.sessions.LoadAndDelete(session); ok {
		id = v.(uint64)
	}
	start := b.t.now()
	err := b.Backend.Release(ctx, session)
	b.t.add(backendRelease, id, start, b.t.now())
	return err
}

// layerTimes is what the spans say about where granted requests spent
// their time. Self time is a span's duration minus its children's.
type layerTimes struct {
	wireSelf, serviceSelf, wait, release []time.Duration
}

// selfTimes folds the spans of every request whose acquire completed in
// [from, to) into per-layer self times.
func (t *tracer) selfTimes(from, to time.Time) layerTimes {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	type perRequest struct {
		client, backend, wait int64
		granted, inWindow     bool
	}
	reqs := map[uint64]*perRequest{}
	get := func(id uint64) *perRequest {
		r := reqs[id]
		if r == nil {
			r = &perRequest{}
			reqs[id] = r
		}
		return r
	}
	var out layerTimes
	for _, s := range t.all() {
		d := s.end - s.start
		switch s.kind {
		case clientAcquire:
			r := get(s.id)
			r.client += d
			r.inWindow = s.end >= lo && s.end < hi
		case backendAcquire:
			get(s.id).backend += d
		case substrateWait:
			r := get(s.id)
			r.wait += d
			r.granted = true
		case backendRelease:
			if s.end >= lo && s.end < hi {
				out.release = append(out.release, time.Duration(d))
			}
		}
	}
	for _, r := range reqs {
		if !r.granted || !r.inWindow {
			continue
		}
		out.wireSelf = append(out.wireSelf, time.Duration(r.client-r.backend))
		out.serviceSelf = append(out.serviceSelf, time.Duration(r.backend-r.wait))
		out.wait = append(out.wait, time.Duration(r.wait))
	}
	return out
}

// writeFile writes every recorded span to out/trace-<workload>.json.
func (t *tracer) writeFile(workload string, seed int64) (string, error) {
	path := filepath.Join("out", "trace-"+workload+".json")
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"time_unit\":\"ns since trace start\",\"spans\":[\n", workload, seed)
	var line []byte
	for i, s := range t.all() {
		line = line[:0]
		if i > 0 {
			line = append(line, ",\n"...)
		}
		line = append(line, `{"name":"`...)
		line = append(line, spanName[s.kind]...)
		line = append(line, `","id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"parent":"`...)
		line = append(line, spanParent[s.kind]...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '}')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
