package msgpass

import (
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
)

// drivenConfig is a minimal driven-mode config over g.
func drivenConfig(g *graph.Graph) Config {
	return Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             1,
	}
}

func TestDrivenStartPanics(t *testing.T) {
	d := NewDriven(drivenConfig(graph.Ring(3)), nil)
	defer func() {
		if recover() == nil {
			t.Error("Start on a driven network must panic")
		}
	}()
	d.Network().Start()
}

func TestForkDrivenStartPanics(t *testing.T) {
	d := NewForkDriven(ForkConfig{Graph: graph.Ring(3)}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Start on a driven ForkNetwork must panic")
		}
	}()
	d.Network().Start()
}

// TestDrivenBootEmitsFullGossip: the boot step is each node's initial
// gossip — exactly one frame per directed edge.
func TestDrivenBootEmitsFullGossip(t *testing.T) {
	g := graph.Ring(4)
	d := NewDriven(drivenConfig(g), nil)
	frames := d.Boot()
	if want := 2 * g.EdgeCount(); len(frames) != want {
		t.Fatalf("boot emitted %d frames, want %d (one per directed edge)", len(frames), want)
	}
	seen := map[[2]graph.ProcID]bool{}
	for _, f := range frames {
		if !g.HasEdge(f.From, f.To) {
			t.Errorf("frame %v travels a non-edge", f)
		}
		key := [2]graph.ProcID{f.From, f.To}
		if seen[key] {
			t.Errorf("duplicate boot frame on %d->%d", f.From, f.To)
		}
		seen[key] = true
		if f.EdgeIndex() != g.EdgeIndex(f.From, f.To) {
			t.Errorf("frame %v carries wrong edge index", f)
		}
	}
}

// TestDrivenVirtualClockStampsSessions: the pluggable clock is the only
// time source — eating sessions carry exactly the instants the driver's
// clock produced.
func TestDrivenVirtualClockStampsSessions(t *testing.T) {
	g := graph.Ring(4)
	vnow := time.Unix(1000, 0).UTC()
	d := NewDriven(drivenConfig(g), func() time.Time { return vnow })
	pending := d.Boot()
	for round := 0; round < 60; round++ {
		for p := 0; p < g.N(); p++ {
			vnow = vnow.Add(time.Millisecond)
			pending = append(pending, d.Tick(graph.ProcID(p))...)
		}
		window := pending
		pending = nil
		for _, f := range window {
			vnow = vnow.Add(time.Millisecond)
			pending = append(pending, d.Deliver(f)...)
		}
	}
	d.Finish()
	sessions := d.Network().Sessions()
	if len(sessions) == 0 {
		t.Fatal("no eating sessions in 60 driven rounds")
	}
	lo := time.Unix(1000, 0).UTC()
	for _, s := range sessions {
		if s.Start.Before(lo) || s.End.After(vnow) || s.End.Before(s.Start) {
			t.Errorf("session %v outside the virtual clock's range [%v, %v]", s, lo, vnow)
		}
	}
}

// TestDrivenReaderMatchesControlSurface: reader views reflect kills and
// malicious windows applied through the normal Network controls.
func TestDrivenReaderMatchesControlSurface(t *testing.T) {
	g := graph.Ring(4)
	d := NewDriven(drivenConfig(g), nil)
	rd := d.Reader()
	d.Boot()
	nw := d.Network()
	nw.Kill(1)
	nw.CrashMaliciously(2, 3)
	d.Tick(1)
	d.Tick(2)
	if !rd.Dead(1) {
		t.Error("killed node not dead through the reader")
	}
	if !rd.Malicious(2) || rd.Dead(2) {
		t.Error("node 2 should be mid-window: malicious, not yet dead")
	}
	d.Tick(2)
	d.Tick(2)
	if !rd.Dead(2) || rd.Malicious(2) {
		t.Error("node 2 should be dead after its 3-step window")
	}
	if rd.Graph() != g || rd.DiameterConst() != sim.SafeDepthBound(g) {
		t.Error("reader misreports graph or diameter")
	}
	for _, e := range g.Edges() {
		pr := rd.Priority(e)
		if pr != e.A && pr != e.B {
			t.Errorf("edge %v priority %d is not an endpoint", e, pr)
		}
	}
}

// TestExitClosesSessionBeforeItsFramesLand pins where a meal ends: a
// worker that leaves Eating has its session closed inside the step that
// exits (recordEatEnd in act), stamped with that step's instant, before
// any frame the step — or a later one — emits can be delivered. So when
// a neighbour's Deliver of the handover runs, Sessions() already shows
// the sender's last meal ended, at or before the neighbour's start.
func TestExitClosesSessionBeforeItsFramesLand(t *testing.T) {
	g := graph.Ring(4)
	vnow := time.Unix(1000, 0).UTC()
	d := NewDriven(drivenConfig(g), func() time.Time { return vnow })
	rd := d.Reader()
	// ended reports whether p has a completed session that ended at end.
	ended := func(p graph.ProcID, end time.Time) bool {
		for _, s := range d.Network().Sessions() {
			if s.Proc == p && s.End.Equal(end) {
				return true
			}
		}
		return false
	}
	// inFlight is a frame plus the instant its sender last left Eating
	// before emitting it (zero if it never had).
	type inFlight struct {
		f        Frame
		lastExit time.Time
	}
	lastExit := make([]time.Time, g.N())
	var pending []inFlight
	for _, f := range d.Boot() {
		pending = append(pending, inFlight{f: f})
	}
	// step runs one primitive at p at the next instant and queues what it
	// emitted; it reports whether p entered Eating.
	step := func(p graph.ProcID, run func() []Frame) (entered bool) {
		vnow = vnow.Add(time.Millisecond)
		was := rd.State(p) == core.Eating
		out := run()
		is := rd.State(p) == core.Eating
		if was && !is {
			if !ended(p, vnow) {
				t.Fatalf("node %d left Eating at %v but its session is not closed at that instant when the step returns", p, vnow)
			}
			lastExit[p] = vnow
		}
		for _, f := range out {
			pending = append(pending, inFlight{f: f, lastExit: lastExit[p]})
		}
		return !was && is
	}
	handovers := 0
	for round := 0; round < 200; round++ {
		for p := 0; p < g.N(); p++ {
			step(graph.ProcID(p), func() []Frame { return d.Tick(graph.ProcID(p)) })
		}
		window := pending
		pending = nil
		for _, fl := range window {
			from := fl.f.From
			if !fl.lastExit.IsZero() && !ended(from, fl.lastExit) {
				t.Fatalf("frame %v delivered while node %d's meal that ended at %v is not recorded", fl.f, from, fl.lastExit)
			}
			if step(fl.f.To, func() []Frame { return d.Deliver(fl.f) }) && !fl.lastExit.IsZero() {
				handovers++
				if vnow.Before(fl.lastExit) {
					t.Fatalf("node %d started eating at %v, before neighbour %d's meal ended at %v", fl.f.To, vnow, from, fl.lastExit)
				}
			}
		}
	}
	if handovers == 0 {
		t.Fatal("no neighbour entered Eating on a frame from a worker that had eaten; the test proves nothing")
	}
	t.Logf("%d handovers from workers that had eaten", handovers)
}
