package detsim

import (
	"testing"

	"mcdp/internal/graph"
)

// The fuzz targets treat the fuzzer's byte input as a schedule: every
// decision of an adversarial run — which node steps, which frame is
// delivered, which nodes crash and when — decodes from the input via
// Bytes. The fuzzer therefore explores the space of interleavings and
// fault plans directly, and any crashing input is a replayable
// schedule. Properties checked are the schedule-independent ones:
// eating exclusion between non-crashed neighbors and lock-history
// legality (liveness needs fairness, which arbitrary bytes do not
// provide).

// fuzzTopology picks a small topology from the decision stream.
func fuzzTopology(src Source) *graph.Graph {
	switch src.Intn(4) {
	case 0:
		return graph.Ring(6)
	case 1:
		return graph.Star(6)
	case 2:
		return graph.Grid(3, 3)
	default:
		return graph.Path(5)
	}
}

// FuzzScheduleSafety: arbitrary interleavings over a healthy system
// must never break eating exclusion.
func FuzzScheduleSafety(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x01})
	f.Add([]byte("ring schedule exercising tick and deliver interleavings"))
	f.Add([]byte{0xff, 0x00, 0xab, 0x13, 0x77, 0x77, 0x02, 0xee, 0x41, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		g := fuzzTopology(src)
		res := RunAdversarial(Config{Graph: g, Seed: 1, MaxSteps: 800, Source: src})
		if len(res.SafetyViolations) != 0 {
			t.Fatalf("schedule broke safety on %s: %v", g.Name(), res.SafetyViolations)
		}
	})
}

// FuzzMaliciousWindow: byte-drawn malicious crash plans (victims,
// rounds, garbage window lengths) under byte-drawn schedules must never
// make two non-crashed neighbors eat together.
func FuzzMaliciousWindow(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x03, 0x41, 0x00, 0x99})
	f.Add([]byte("malicious window fault plan and schedule decisions"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		g := fuzzTopology(src)
		crashes := RandomCrashes(src, g, 1+src.Intn(2), 400, 10)
		res := RunAdversarial(Config{Graph: g, Seed: 2, MaxSteps: 800, Crashes: crashes, Source: src})
		if len(res.SafetyViolations) != 0 {
			t.Fatalf("malicious plan %v broke safety on %s: %v", crashes, g.Name(), res.SafetyViolations)
		}
	})
}

// FuzzLockHistory: byte-drawn client workloads and crash plans over the
// lock-service simulation must always yield a linearizable grant
// history — the arbiter's safety-by-construction claim under a possibly
// lying eating oracle.
func FuzzLockHistory(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x10, 0x20, 0x30})
	f.Add([]byte("lock service workload submits cancels releases and crashes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewBytes(data)
		g := graph.Ring(6)
		crashes := RandomCrashes(src, g, src.Intn(2), 40, 6)
		res := RunService(ServiceConfig{
			Graph:   g,
			Seed:    3,
			Rounds:  60,
			Crashes: crashes,
			Source:  src,
		})
		if len(res.HistoryViolations) != 0 {
			t.Fatalf("illegal lock history under plan %v: %v", crashes, res.HistoryViolations)
		}
		if len(res.SafetyViolations) != 0 {
			t.Fatalf("diners safety broke under plan %v: %v", crashes, res.SafetyViolations)
		}
		if len(res.StarvationViolations) != 0 {
			t.Fatalf("a queued session was passed over without a meal under plan %v: %v", crashes, res.StarvationViolations)
		}
	})
}
