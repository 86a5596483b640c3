package lockservice

import (
	"fmt"
	"sort"
	"sync"

	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
)

// HistoryKind tags a recorded session lifecycle event.
type HistoryKind uint8

// Session lifecycle events: a session is submitted, then either canceled
// while pending or granted and eventually released (lease expiry flows
// through release).
const (
	HSubmit HistoryKind = iota + 1
	HGrant
	HRelease
	HCancel
)

// String implements fmt.Stringer.
func (k HistoryKind) String() string {
	switch k {
	case HSubmit:
		return "submit"
	case HGrant:
		return "grant"
	case HRelease:
		return "release"
	case HCancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// HistoryEvent is one recorded lifecycle transition. Seq is a total
// order consistent with the arbiter's internal state order (events are
// recorded under the arbiter's mutex), so interval reasoning over Seq is
// exact, not approximate.
type HistoryEvent struct {
	Seq     int64
	Kind    HistoryKind
	Session int64
	Home    graph.ProcID
	Bottles []int
}

// String implements fmt.Stringer.
func (e HistoryEvent) String() string {
	return fmt.Sprintf("#%d %s s%d home=%d bottles=%v", e.Seq, e.Kind, e.Session, e.Home, e.Bottles)
}

// History records the acquire/release history of a lock-service run and
// checks it for mutual exclusion and per-lock linearizability. Wire it
// to an arbiter with Tap (production servers pass Config.History; the
// deterministic harness taps its own arbiter). Recording grows without
// bound, so it is a verification harness, not an always-on production
// counter.
type History struct {
	mu     sync.Mutex
	seq    int64                       // guarded by mu
	nextID int64                       // guarded by mu
	ids    map[*drinkers.Session]int64 // guarded by mu
	events []HistoryEvent              // guarded by mu
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{ids: make(map[*drinkers.Session]int64)}
}

// Tap wires h into the arbiter's lifecycle hooks. It must be called
// before the arbiter is shared across goroutines, and replaces any hooks
// previously set.
func (h *History) Tap(a *drinkers.Arbiter) {
	a.OnSubmit = func(s *drinkers.Session) { h.record(HSubmit, s) }
	a.OnGrant = func(s *drinkers.Session) { h.record(HGrant, s) }
	a.OnRelease = func(s *drinkers.Session) { h.record(HRelease, s) }
	a.OnCancel = func(s *drinkers.Session) { h.record(HCancel, s) }
}

// record appends one event, assigning session IDs in submit order.
func (h *History) record(k HistoryKind, s *drinkers.Session) {
	h.mu.Lock()
	defer h.mu.Unlock()
	id, ok := h.ids[s]
	if !ok {
		h.nextID++
		id = h.nextID
		h.ids[s] = id
	}
	if k == HRelease || k == HCancel {
		delete(h.ids, s) // the session object is finished; free the map
	}
	h.seq++
	h.events = append(h.events, HistoryEvent{
		Seq:     h.seq,
		Kind:    k,
		Session: id,
		Home:    s.Home,
		Bottles: append([]int(nil), s.Bottles...),
	})
}

// Events returns a copy of the recorded history in Seq order.
func (h *History) Events() []HistoryEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HistoryEvent(nil), h.events...)
}

// Check verifies the recorded history against g's locks and returns all
// violations found (nil means the history is clean). See CheckEvents.
func (h *History) Check(g *graph.Graph) []string { return CheckEvents(g, h.Events()) }

// CheckEvents verifies that a lock history is legal:
//
//   - lifecycle order: each session is submitted exactly once, granted at
//     most once after its submit, and released or canceled at most once
//     after that; nothing follows a release or cancel;
//   - placement: every bottle of a session is an edge incident to its
//     home worker;
//   - mutual exclusion / per-lock linearizability: projecting the grants
//     onto any single bottle, the hold intervals [grant, release) are
//     pairwise disjoint in the Seq order. Because each grant then lies
//     inside its own [submit, release) window and no two holds of one
//     lock overlap, choosing each grant and release as its operation's
//     linearization point yields a legal sequential mutex history — so
//     interval disjointness per bottle is exactly per-lock
//     linearizability for this API.
//
// A still-open grant (no release recorded) holds its bottles to the end
// of the history.
func CheckEvents(g *graph.Graph, events []HistoryEvent) []string {
	var bad []string
	type life struct {
		submit, grant, release int64 // Seq, 0 = absent
		home                   graph.ProcID
		bottles                []int
	}
	lives := make(map[int64]*life)
	order := make([]int64, 0, len(events))
	for _, e := range events {
		l := lives[e.Session]
		if l == nil {
			l = &life{}
			lives[e.Session] = l
			order = append(order, e.Session)
		}
		switch e.Kind {
		case HSubmit:
			if l.submit != 0 {
				bad = append(bad, fmt.Sprintf("session %d submitted twice (#%d, #%d)", e.Session, l.submit, e.Seq))
				continue
			}
			l.submit = e.Seq
			l.home = e.Home
			l.bottles = e.Bottles
			for _, b := range e.Bottles {
				if b < 0 || b >= g.EdgeCount() {
					bad = append(bad, fmt.Sprintf("session %d bottle %d out of range", e.Session, b))
					continue
				}
				ed := g.Edges()[b]
				if ed.A != e.Home && ed.B != e.Home {
					bad = append(bad, fmt.Sprintf("session %d bottle %v not incident to home %d", e.Session, ed, e.Home))
				}
			}
		case HGrant:
			switch {
			case l.submit == 0:
				bad = append(bad, fmt.Sprintf("session %d granted (#%d) before any submit", e.Session, e.Seq))
			case l.grant != 0:
				bad = append(bad, fmt.Sprintf("session %d granted twice (#%d, #%d)", e.Session, l.grant, e.Seq))
			case l.release != 0:
				bad = append(bad, fmt.Sprintf("session %d granted (#%d) after its release (#%d)", e.Session, e.Seq, l.release))
			default:
				l.grant = e.Seq
			}
		case HRelease, HCancel:
			switch {
			case l.submit == 0:
				bad = append(bad, fmt.Sprintf("session %d %s (#%d) before any submit", e.Session, e.Kind, e.Seq))
			case l.release != 0:
				bad = append(bad, fmt.Sprintf("session %d finished twice (#%d, #%d)", e.Session, l.release, e.Seq))
			case e.Kind == HRelease && l.grant == 0:
				bad = append(bad, fmt.Sprintf("session %d released (#%d) without a grant", e.Session, e.Seq))
			case e.Kind == HCancel && l.grant != 0:
				bad = append(bad, fmt.Sprintf("session %d canceled (#%d) after its grant (#%d)", e.Session, e.Seq, l.grant))
			default:
				l.release = e.Seq
			}
		}
	}
	// Per-bottle hold intervals, checked for pairwise disjointness.
	type hold struct {
		from, to int64
		session  int64
	}
	holds := make(map[int][]hold)
	for _, id := range order {
		l := lives[id]
		if l.grant == 0 {
			continue
		}
		to := l.release
		if to == 0 {
			to = int64(len(events)) + 1 // still held at end of history
		}
		for _, b := range l.bottles {
			holds[b] = append(holds[b], hold{from: l.grant, to: to, session: id})
		}
	}
	bottles := make([]int, 0, len(holds))
	for b := range holds {
		bottles = append(bottles, b)
	}
	sort.Ints(bottles)
	for _, b := range bottles {
		hs := holds[b]
		sort.Slice(hs, func(i, j int) bool { return hs[i].from < hs[j].from })
		for i := 1; i < len(hs); i++ {
			if hs[i].from < hs[i-1].to {
				bad = append(bad, fmt.Sprintf(
					"bottle %d held by sessions %d and %d concurrently (#%d..#%d overlaps #%d..#%d)",
					b, hs[i-1].session, hs[i].session, hs[i-1].from, hs[i-1].to, hs[i].from, hs[i].to))
			}
		}
	}
	return bad
}
