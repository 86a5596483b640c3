package wire

import (
	"context"
	"net"
	"sync"
	"testing"
)

// BenchmarkWireCoalesce times Pings over one loopback connection and
// reports how many entries share a write on each side. With 64 callers in
// flight (one op is a wave of 64 concurrent Pings) both write loops find
// more operations in flight than their batch holds, yield once and send
// what that lets through in one frame; a lone caller has nothing else in
// flight, so its flush is never delayed — its ns/op is the round trip,
// and exactly one entry rides every write.
func BenchmarkWireCoalesce(b *testing.B) {
	run := func(b *testing.B, callers int) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		srv := NewServer(ServerConfig{Backend: newFakeBackend()})
		go srv.Serve(ln)
		defer srv.Close()
		cl := &Client{Addr: ln.Addr().String(), Conns: 1}
		defer cl.Close()
		ctx := context.Background()
		if err := cl.Ping(ctx); err != nil { // dial outside the timer
			b.Fatalf("ping: %v", err)
		}
		cs, ss := cl.Stats(), srv.Stats()
		entries, writes := cs.BatchedEntries.Load(), cs.Writes.Load()
		out, frames := ss.EntriesOut.Load(), ss.FramesOut.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wave sync.WaitGroup
			for c := 1; c < callers; c++ {
				wave.Add(1)
				go func() {
					defer wave.Done()
					if err := cl.Ping(ctx); err != nil {
						b.Errorf("ping: %v", err)
					}
				}()
			}
			if err := cl.Ping(ctx); err != nil {
				b.Fatalf("ping: %v", err)
			}
			wave.Wait()
		}
		b.StopTimer()
		perWrite := float64(cs.BatchedEntries.Load()-entries) / float64(cs.Writes.Load()-writes)
		perFrame := float64(ss.EntriesOut.Load()-out) / float64(ss.FramesOut.Load()-frames)
		b.ReportMetric(perWrite, "entries/write")
		b.ReportMetric(perFrame, "entries/frame-out")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*callers), "ns/ping")
		if lone := callers == 1; lone != (perWrite == 1) || lone != (perFrame == 1) {
			b.Fatalf("%d callers: %.2f entries per client write, %.2f per server frame; a lone caller must never share or wait, concurrent callers must share",
				callers, perWrite, perFrame)
		}
	}
	b.Run("callers=1", func(b *testing.B) { run(b, 1) })
	b.Run("callers=64", func(b *testing.B) { run(b, 64) })
}
