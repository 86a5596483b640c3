// Package lockservice exposes the malicious-crash diners core as a
// long-running network lock service (`dinerd`): a Server runs one
// goroutine per worker node on the msgpass runtime, maps client
// Acquire/Release requests onto drinkers sessions, and lets a lock that
// sessions at both of its workers ask for change hands only when the
// paper's enter guard has fired for the collecting session's home node
// — so every contended grant inherits the paper's stabilization and
// crash failure locality 2 by construction — while a lock nobody across
// its edge asks for is granted without a dining round at all: on the
// spot if it is already at its home, surrendered by the live worker
// across the edge if it is there.
//
// The resource model is the drinking-philosophers one: every edge of
// the worker topology carries one named lock (a bottle); a request
// names a set of resources, which map deterministically onto edges,
// and is served by a worker adjacent to all of them.
package lockservice

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mcdp/internal/drinkers"
	"mcdp/internal/graph"
)

// DemoTopology returns the default worker topology shared by dinerd's
// `serve` default, the examples, and the tests: a 3x4 grid — 12
// workers, 17 locks.
func DemoTopology() *graph.Graph { return graph.Grid(3, 4) }

// ResourceMapper deterministically maps arbitrary resource names onto
// the bottles (edges) of a topology. Names of the form "edge:a-b"
// address the edge {a, b} directly when it exists; any other name is
// hashed (FNV-1a) onto an edge index. The mapping is pure, so every
// server, client, and load generator sharing the topology agrees on
// which workers arbitrate which resource.
type ResourceMapper struct {
	g *graph.Graph
}

// NewResourceMapper returns a mapper over g.
func NewResourceMapper(g *graph.Graph) *ResourceMapper {
	if g == nil {
		panic("lockservice: NewResourceMapper requires a graph")
	}
	if g.EdgeCount() == 0 {
		panic("lockservice: topology has no edges, so no lockable resources")
	}
	return &ResourceMapper{g: g}
}

// Graph returns the mapper's topology.
func (m *ResourceMapper) Graph() *graph.Graph { return m.g }

// EdgeFor maps a resource name to its edge and edge index.
func (m *ResourceMapper) EdgeFor(name string) (graph.Edge, int) {
	if e, ok := m.parseEdgeName(name); ok {
		idx := m.g.EdgeIndex(e.A, e.B)
		return e, idx
	}
	idx := int(fnv64a(name) % uint64(m.g.EdgeCount()))
	return m.g.Edges()[idx], idx
}

// fnv64a is hash/fnv's New64a over a string, without the hasher or the
// byte-slice copy: name mapping runs once per resource on every acquire.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// parseEdgeName recognizes the explicit "edge:a-b" form for an edge
// that exists in the topology.
func (m *ResourceMapper) parseEdgeName(name string) (graph.Edge, bool) {
	rest, ok := strings.CutPrefix(name, "edge:")
	if !ok {
		return graph.Edge{}, false
	}
	as, bs, ok := strings.Cut(rest, "-")
	if !ok {
		return graph.Edge{}, false
	}
	a, err1 := strconv.Atoi(as)
	b, err2 := strconv.Atoi(bs)
	if err1 != nil || err2 != nil {
		return graph.Edge{}, false
	}
	e := graph.EdgeBetween(graph.ProcID(a), graph.ProcID(b))
	if a < 0 || b < 0 || a >= m.g.N() || b >= m.g.N() || m.g.EdgeIndex(e.A, e.B) < 0 {
		return graph.Edge{}, false
	}
	return e, true
}

// EdgeName returns the canonical explicit name for an edge ("edge:a-b").
func EdgeName(e graph.Edge) string { return fmt.Sprintf("edge:%d-%d", e.A, e.B) }

// MapSession maps a resource set onto a drinkers session shape: the
// deduplicated bottle edge indices and the candidate home workers (the
// nodes adjacent to every mapped edge: at most two, in ascending ID
// order). It fails when the resources'
// edges share no common endpoint — such a set spans arbitration shards
// and must be split by the caller.
func (m *ResourceMapper) MapSession(resources []string) (bottles []int, homes []graph.ProcID, err error) {
	if len(resources) == 0 {
		return nil, nil, fmt.Errorf("lockservice: empty resource set")
	}
	bottles = make([]int, 0, len(resources))
	for _, r := range resources {
		if _, idx := m.EdgeFor(r); !slices.Contains(bottles, idx) {
			bottles = append(bottles, idx)
		}
	}
	sort.Ints(bottles)
	// Candidate homes: the endpoints of one edge that every other edge
	// shares (A < B, so they come out sorted).
	edges := m.g.Edges()
	first := edges[bottles[0]]
	for _, p := range [2]graph.ProcID{first.A, first.B} {
		shared := true
		for _, b := range bottles[1:] {
			if e := edges[b]; e.A != p && e.B != p {
				shared = false
				break
			}
		}
		if shared {
			homes = append(homes, p)
		}
	}
	if len(homes) == 0 {
		return nil, nil, fmt.Errorf("lockservice: resources %v map to edges with no common worker", resources)
	}
	return bottles, homes, nil
}

// CatalogSessions adapts a catalog of named resources to the drinkers
// simulation layer: at each consultation it draws one name and, when
// the consulted process is a candidate home for it, starts a session
// needing the mapped bottle. It is the same resource-to-session mapping
// the dinerd server applies to client requests, packaged as a
// drinkers.SessionSource so the synchronous examples
// (examples/lockmanager) exercise identical shard placement. Not safe
// for concurrent use — the drinkers simulator is single-threaded.
type CatalogSessions struct {
	m     *ResourceMapper
	names []string
	prob  float64
	seed  int64
}

// NewCatalogSessions returns a session source drawing uniformly from
// names with probability prob per consultation.
func NewCatalogSessions(g *graph.Graph, names []string, prob float64, seed int64) *CatalogSessions {
	if len(names) == 0 {
		panic("lockservice: CatalogSessions needs a non-empty catalog")
	}
	return &CatalogSessions{m: NewResourceMapper(g), names: names, prob: prob, seed: seed}
}

var _ drinkers.SessionSource = (*CatalogSessions)(nil)

// Next implements drinkers.SessionSource. The draw is a deterministic
// hash of (seed, p, step) so identical runs replay identically.
func (c *CatalogSessions) Next(p graph.ProcID, step int64) []graph.ProcID {
	h := splitmix(uint64(c.seed) ^ uint64(p)*0x9e3779b97f4a7c15 ^ uint64(step)*0xbf58476d1ce4e5b9)
	if float64(h>>11)/float64(1<<53) >= c.prob {
		return nil
	}
	name := c.names[int((h>>7)%uint64(len(c.names)))]
	e, _ := c.m.EdgeFor(name)
	if p != e.A && p != e.B {
		return nil // p is not a candidate home for this resource
	}
	return []graph.ProcID{e.Other(p)}
}

// splitmix is the splitmix64 finalizer driving the deterministic
// catalog draws.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
