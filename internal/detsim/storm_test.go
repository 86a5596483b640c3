package detsim

import (
	"testing"

	"mcdp/internal/chaos"
	"mcdp/internal/graph"
)

// TestEventDrivenHandoverIsNoStorm bounds what answering frames at
// transport latency may cost in frames. The baselines are the
// MessagesSent of the same runs on the tick-only runtime (every token
// handover and state change waited for the next gossip tick): an
// all-hungry grid(3x3) with a 20-step malicious window at the center
// sent 4200 frames in 200 rounds on each of seeds 1-4; the DefaultFaults
// chaos campaign sent at most 9414 in 400 rounds. Replies need token
// possession or a real Thinking → Hungry transition, so they scale with
// meals, not with frames received: the totals must stay within twice the baseline,
// garbage frames and injected duplicates included. An idle system has
// nothing to answer and must send exactly the tick gossip.
func TestEventDrivenHandoverIsNoStorm(t *testing.T) {
	g := graph.Grid(3, 3)
	const (
		tickOnlyMalicious = 4200
		tickOnlyCampaign  = 9414
		tickOnlyIdle      = 4824 // 24 directed edges x (boot + 200 rounds)
	)
	for seed := int64(1); seed <= 4; seed++ {
		mal := Run(Config{Graph: g, Seed: seed, Rounds: 200,
			Crashes: []Crash{{Node: 4, Round: 20, Steps: 20}}})
		if mal.Failed() {
			t.Errorf("seed %d: malicious-window run failed: %v %v", seed, mal.SafetyViolations, mal.LocalityViolations)
		}
		if mal.MessagesSent > 2*tickOnlyMalicious {
			t.Errorf("seed %d: malicious window: %d frames, tick-only runtime sent %d", seed, mal.MessagesSent, tickOnlyMalicious)
		}
		camp := SweepCampaign(g, seed, 400, 2, 0, chaos.DefaultFaults(), false)
		if camp.MessagesSent > 2*tickOnlyCampaign {
			t.Errorf("seed %d: chaos campaign: %d frames, tick-only runtime sent %d", seed, camp.MessagesSent, tickOnlyCampaign)
		}
		idle := Run(Config{Graph: g, Seed: seed, Rounds: 200, Hungry: make([]bool, g.N())})
		if idle.MessagesSent != tickOnlyIdle {
			t.Errorf("seed %d: idle grid sent %d frames, want exactly the tick gossip %d", seed, idle.MessagesSent, tickOnlyIdle)
		}
		t.Logf("seed %d: malicious %d (%.2fx)  campaign %d (%.2fx)  idle %d", seed,
			mal.MessagesSent, float64(mal.MessagesSent)/tickOnlyMalicious,
			camp.MessagesSent, float64(camp.MessagesSent)/tickOnlyCampaign, idle.MessagesSent)
	}
}
