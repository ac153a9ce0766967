// Package graph provides the undirected network-topology substrate used by
// the DUST placement engine: graph construction, fat-tree and synthetic
// topology generators, hop-distance computation, bounded all-simple-paths
// enumeration, and minimum-response-time path search.
//
// Nodes are dense integer indices 0..N-1 with optional string names and
// role metadata (layer, pod) attached by generators. Edges carry a physical
// capacity in Mbps and a dynamic utilization fraction; the DUST model
// derives the link rate Lu from these two numbers.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// EdgeID identifies an edge within a Graph. IDs are dense, 0..M-1, in
// insertion order.
type EdgeID int

// Edge is an undirected link between two nodes.
type Edge struct {
	ID EdgeID
	// U and V are the endpoint node indices, U < V by construction.
	U, V int
	// CapMbps is the physical link bandwidth in megabits per second.
	CapMbps float64
	// Utilization is the fraction of CapMbps currently carrying data-plane
	// traffic, in [0, 1].
	Utilization float64
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint of e.
func (e Edge) Other(n int) int {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d-%d)", n, e.ID, e.U, e.V))
}

// UtilizedMbps is the paper's Lu: physical bandwidth multiplied by the
// dynamic utilization rate (Section IV-B).
func (e Edge) UtilizedMbps() float64 { return e.CapMbps * e.Utilization }

// AvailableMbps is the headroom left on the link: CapMbps·(1−Utilization).
func (e Edge) AvailableMbps() float64 { return e.CapMbps * (1 - e.Utilization) }

// Layer classifies a node's position in a hierarchical topology.
type Layer uint8

// Node layers assigned by the fat-tree generator. Synthetic generators
// leave every node at LayerUnknown.
const (
	LayerUnknown Layer = iota
	LayerEdge
	LayerAgg
	LayerCore
	LayerHost
)

func (l Layer) String() string {
	switch l {
	case LayerEdge:
		return "edge"
	case LayerAgg:
		return "agg"
	case LayerCore:
		return "core"
	case LayerHost:
		return "host"
	default:
		return "unknown"
	}
}

// NodeInfo is per-node metadata attached by generators.
type NodeInfo struct {
	Name  string
	Layer Layer
	// Pod is the fat-tree pod index, or -1 for core/unpodded nodes.
	Pod int
}

// Graph is an undirected multigraph with dense node indices.
//
// The zero value is not usable; construct with New.
type Graph struct {
	nodes []NodeInfo
	edges []Edge
	// adj[n] lists the IDs of edges incident to node n, and ends[n][k] is
	// the far endpoint of edge adj[n][k], so route passes walk a node's
	// neighbours without loading the edges.
	adj  [][]EdgeID
	ends [][]int
	// version increments on every structural or utilization mutation; route
	// caches key on it.
	version uint64
}

// New returns an empty graph with n isolated nodes named "n0".."n<n-1>".
func New(n int) *Graph {
	g := &Graph{
		nodes: make([]NodeInfo, n),
		adj:   make([][]EdgeID, n),
		ends:  make([][]int, n),
	}
	for i := range g.nodes {
		g.nodes[i] = NodeInfo{Name: fmt.Sprintf("n%d", i), Pod: -1}
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the metadata for node n.
func (g *Graph) Node(n int) NodeInfo { return g.nodes[n] }

// SetNode replaces the metadata for node n.
func (g *Graph) SetNode(n int, info NodeInfo) { g.nodes[n] = info }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns a copy of the edge slice.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// AddEdge inserts an undirected edge between u and v with the given
// capacity and zero utilization, returning its ID. Self-loops are rejected.
func (g *Graph) AddEdge(u, v int, capMbps float64) EdgeID {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	if v >= len(g.nodes) {
		panic(fmt.Sprintf("graph: node %d out of range (%d nodes)", v, len(g.nodes)))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, CapMbps: capMbps})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	g.ends[u] = append(g.ends[u], v)
	g.ends[v] = append(g.ends[v], u)
	g.version++
	return id
}

// Version identifies the graph's current mutation state: it increments on
// every AddEdge/SetUtilization/AddUtilizedMbps, so equal versions imply
// identical link rates. Route caches key on it.
func (g *Graph) Version() uint64 { return g.version }

// SetUtilization sets the dynamic utilization fraction of edge id,
// clamping to [0, 1]. A NaN utilization panics: no clamp can place it, and
// a NaN rate would silently make the edge impassable to every route.
func (g *Graph) SetUtilization(id EdgeID, util float64) {
	if math.IsNaN(util) {
		panic(fmt.Sprintf("graph: NaN utilization for edge %d", id))
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	g.edges[id].Utilization = util
	g.version++
}

// AddUtilizedMbps adds mbps of data-plane traffic to edge id, expressed as
// extra utilization, clamping total utilization to [0, 1]. It panics when
// the new utilization is NaN (a NaN mbps, or infinite traffic on an
// infinite link), as SetUtilization does.
func (g *Graph) AddUtilizedMbps(id EdgeID, mbps float64) {
	e := &g.edges[id]
	if e.CapMbps <= 0 {
		return
	}
	u := e.Utilization + mbps/e.CapMbps
	if math.IsNaN(u) {
		panic(fmt.Sprintf("graph: %g Mbps on edge %d (capacity %g) gives NaN utilization", mbps, id, e.CapMbps))
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	e.Utilization = u
	g.version++
}

// Incident returns the IDs of edges incident to node n. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Incident(n int) []EdgeID { return g.adj[n] }

// Neighbors returns the sorted, deduplicated set of nodes adjacent to n.
func (g *Graph) Neighbors(n int) []int {
	seen := make(map[int]bool, len(g.adj[n]))
	var out []int
	for _, id := range g.adj[n] {
		m := g.edges[id].Other(n)
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

// EdgeBetween returns the minimum-utilization edge directly connecting u
// and v, and whether one exists.
func (g *Graph) EdgeBetween(u, v int) (Edge, bool) {
	var best Edge
	found := false
	for _, id := range g.adj[u] {
		e := g.edges[id]
		if e.Other(u) != v {
			continue
		}
		if !found || e.Utilization < best.Utilization {
			best = e
			found = true
		}
	}
	return best, found
}

// Degree returns the number of incident edges (counting parallels) at n.
func (g *Graph) Degree(n int) int { return len(g.adj[n]) }

// Connected reports whether the graph is a single connected component.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.adj[cur] {
			m := g.edges[id].Other(cur)
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == n
}

// HopDistances returns the BFS hop distance from src to every node;
// unreachable nodes get -1.
func (g *Graph) HopDistances(src int) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[cur] {
			m := g.edges[id].Other(cur)
			if dist[m] < 0 {
				dist[m] = dist[cur] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes:   make([]NodeInfo, len(g.nodes)),
		edges:   make([]Edge, len(g.edges)),
		adj:     make([][]EdgeID, len(g.adj)),
		ends:    make([][]int, len(g.ends)),
		version: g.version,
	}
	copy(ng.nodes, g.nodes)
	copy(ng.edges, g.edges)
	for i, a := range g.adj {
		ng.adj[i] = append([]EdgeID(nil), a...)
		ng.ends[i] = append([]int(nil), g.ends[i]...)
	}
	return ng
}

// InducedSubgraph returns the subgraph induced by the given nodes (edges
// with both endpoints kept), together with the new→old node index map.
// Duplicate input nodes are rejected.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	oldToNew := make(map[int]int, len(nodes))
	newToOld := make([]int, len(nodes))
	for i, n := range nodes {
		if _, dup := oldToNew[n]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d in subgraph selection", n))
		}
		oldToNew[n] = i
		newToOld[i] = n
	}
	sub := New(len(nodes))
	for i, n := range nodes {
		sub.SetNode(i, g.Node(n))
	}
	for _, e := range g.edges {
		u, okU := oldToNew[e.U]
		v, okV := oldToNew[e.V]
		if !okU || !okV {
			continue
		}
		id := sub.AddEdge(u, v, e.CapMbps)
		sub.SetUtilization(id, e.Utilization)
	}
	return sub, newToOld
}

// Validate checks internal invariants: endpoint ordering, adjacency
// symmetry, capacity non-negativity and utilization in [0, 1] (NaN fails
// both). It returns the first violation, in edge order.
func (g *Graph) Validate() error {
	for _, e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph: edge %d endpoints not ordered: %d-%d", e.ID, e.U, e.V)
		}
		if e.V >= len(g.nodes) {
			return fmt.Errorf("graph: edge %d endpoint %d out of range", e.ID, e.V)
		}
		if !(e.CapMbps >= 0) {
			return fmt.Errorf("graph: edge %d has negative capacity %g", e.ID, e.CapMbps)
		}
		if !(e.Utilization >= 0 && e.Utilization <= 1) {
			return fmt.Errorf("graph: edge %d utilization %g outside [0,1]", e.ID, e.Utilization)
		}
	}
	// Each edge must be listed exactly twice, once per endpoint. The count
	// saturates, so a corrupt list cannot wrap it back to 2.
	counts := make([]uint8, len(g.edges))
	for n, ids := range g.adj {
		for _, id := range ids {
			if id < 0 || int(id) >= len(g.edges) {
				return fmt.Errorf("graph: node %d references unknown edge %d", n, id)
			}
			e := g.edges[id]
			if e.U != n && e.V != n {
				return fmt.Errorf("graph: node %d lists edge %d (%d-%d) it is not on", n, id, e.U, e.V)
			}
			if counts[id] < math.MaxUint8 {
				counts[id]++
			}
		}
	}
	for id, c := range counts {
		if c != 2 {
			return fmt.Errorf("graph: edge %d appears %d times in adjacency lists, want 2", id, c)
		}
	}
	return nil
}
