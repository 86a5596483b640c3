// Messagepassing: the Section 4 transformation running for real — every
// philosopher stepped by one wall-clock event loop over reliable FIFO
// channels, and a self-stabilizing
// Dijkstra K-state token per edge that serializes the shared priority
// variable and doubles as the fork. A philosopher crashes maliciously
// mid-run; the rest of the table keeps dining and no two neighbors'
// eating sessions ever overlap.
package main

import (
	"fmt"
	"log"
	"time"

	"mcdp"
)

func main() {
	g := mcdp.Ring(6)
	nw := mcdp.NewNetwork(mcdp.NetworkConfig{
		Graph:            g,
		Algorithm:        mcdp.NewAlgorithm(),
		DiameterOverride: mcdp.SafeDepthBound(g),
		Seed:             42,
	})

	fmt.Printf("starting %d philosophers on %v\n", g.N(), g)
	nw.Start()
	time.Sleep(150 * time.Millisecond)

	fmt.Println("philosopher 2 crashes maliciously: 25 garbage frames, then silence")
	nw.CrashMaliciously(2, 25)
	time.Sleep(150 * time.Millisecond)

	mid := nw.Eats()
	time.Sleep(400 * time.Millisecond)
	nw.Stop()
	final := nw.Eats()

	fmt.Println("\nmeals per philosopher (after-crash delta in parentheses):")
	for p, e := range final {
		marker := ""
		if p == 2 {
			marker = "  <- crashed"
		}
		fmt.Printf("  %d: %4d (+%d)%s\n", p, e, e-mid[p], marker)
	}

	overlaps := nw.OverlappingNeighborSessions()
	fmt.Printf("\nmessages sent: %d (dropped to a full loop queue: %d)\n",
		nw.MessagesSent(), nw.MessagesDropped())
	fmt.Printf("overlapping neighbor eating sessions: %d\n", len(overlaps))

	if len(overlaps) != 0 {
		log.Fatalf("safety violated over message passing: %v", overlaps)
	}
	// Ring(6) distances from 2: node 5 is at distance 3 — the locality
	// guarantee protects it unconditionally.
	if final[5] <= mid[5] {
		log.Fatal("philosopher 5 (distance 3 from the crash) stopped dining")
	}
	fmt.Println("\nOK: dining continued outside the failure locality; safety held throughout")
}
