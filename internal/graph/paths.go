package graph

import (
	"fmt"
	"math"
)

// tieEps is the relative tolerance under which two path costs count as
// equal for tie-breaking. Route costs are sums of reciprocals of link
// rates, so independently computed sums for equally good routes land
// within a few ulps of each other but almost never compare exactly equal.
const tieEps = 1e-9

// ApproxEqual reports whether a and b are equal within a relative
// tolerance of 1e-9. It is the shared comparison behind the paper's
// "minimal hops distance priority" rule: a tie on minimum response time is
// a tie within this tolerance, not an exact float64 equality (which almost
// never fires for sums computed along different routes).
//
// Infinities are handled before any arithmetic so no Inf-Inf NaN can
// leak out of the tolerance math: same-sign infinities (two impassable
// routes from InverseRateCost) compare equal, an infinity never equals a
// finite cost or the opposite infinity, and NaN equals nothing.
func ApproxEqual(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tieEps*math.Max(math.Abs(a), math.Abs(b))
}

// Path is a sequence of edges from a source to a destination. The node
// sequence is implied by the edge sequence.
type Path struct {
	// Src is the first node and Dst the last.
	Src, Dst int
	// Edges lists the traversed edges in order.
	Edges []EdgeID
}

// Hops returns the number of edges on the path.
func (p Path) Hops() int { return len(p.Edges) }

// Cost sums costFn over the path's edges in g.
func (p Path) Cost(g *Graph, costFn EdgeCost) float64 {
	sum := 0.0
	for _, id := range p.Edges {
		sum += costFn(g.Edge(id))
	}
	return sum
}

// Nodes reconstructs the node sequence (Src .. Dst) from the edge list.
func (p Path) Nodes(g *Graph) []int {
	return AppendNodes(make([]int, 0, len(p.Edges)+1), g, p)
}

// AppendNodes appends p's node sequence (Src .. Dst) to dst, in whichever
// integer type the caller stores node ids as (the wire carries int32).
func AppendNodes[T ~int | ~int32](dst []T, g *Graph, p Path) []T {
	cur := p.Src
	dst = append(dst, T(cur))
	for _, id := range p.Edges {
		cur = g.Edge(id).Other(cur)
		dst = append(dst, T(cur))
	}
	return dst
}

// EdgeCost maps an edge to a nonnegative traversal cost.
type EdgeCost func(Edge) float64

// InverseRate is the paper's per-edge response-time weight for a unit of
// data over a link of rate r Mbps: 1/r seconds per megabit, +Inf (the
// edge is impassable) when the rate is nonpositive.
func InverseRate(r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// InverseRateCost returns the InverseRate weight of each edge, with Lu
// obtained from rate.
func InverseRateCost(rate func(Edge) float64) EdgeCost {
	return func(e Edge) float64 { return InverseRate(rate(e)) }
}

// UnitCost weights every edge 1, so path cost equals hop count.
func UnitCost(Edge) float64 { return 1 }

// CostVector evaluates costFn once per edge of g and returns the costs
// indexed by EdgeID. A route round fills one vector and shares it across
// every source's DP, so an edge is priced once per round rather than once
// per edge, layer and source.
func CostVector(g *Graph, costFn EdgeCost) []float64 {
	w := make([]float64, len(g.edges))
	for i, e := range g.edges {
		w[i] = costFn(e)
	}
	return w
}

// AllSimplePaths enumerates every simple path from src to dst with at most
// maxHops edges, in DFS order. maxHops <= 0 means unbounded (bounded only
// by simplicity). limit caps the number of returned paths (<=0: no cap).
//
// This is the paper-literal controllable-routes set p = {r_1, ..., r_n}
// (Section IV-B); its size explodes combinatorially with maxHops, which is
// exactly the effect Figures 8 and 10 measure.
func AllSimplePaths(g *Graph, src, dst, maxHops, limit int) []Path {
	if maxHops <= 0 {
		maxHops = g.NumNodes() // simple paths can never exceed N-1 edges
	}
	var out []Path
	onPath := make([]bool, g.NumNodes())
	var edgeStack []EdgeID

	var dfs func(cur int)
	dfs = func(cur int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if cur == dst {
			out = append(out, Path{Src: src, Dst: dst, Edges: append([]EdgeID(nil), edgeStack...)})
			return
		}
		if len(edgeStack) >= maxHops {
			return
		}
		onPath[cur] = true
		for _, id := range g.Incident(cur) {
			next := g.Edge(id).Other(cur)
			if onPath[next] || next == src {
				continue
			}
			edgeStack = append(edgeStack, id)
			dfs(next)
			edgeStack = edgeStack[:len(edgeStack)-1]
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		onPath[cur] = false
	}
	if src == dst {
		return []Path{{Src: src, Dst: dst}}
	}
	dfs(src)
	return out
}

// CountSimplePaths counts simple paths from src to dst with at most
// maxHops edges without materializing them.
func CountSimplePaths(g *Graph, src, dst, maxHops int) int {
	if src == dst {
		return 1
	}
	if maxHops <= 0 {
		maxHops = g.NumNodes()
	}
	count := 0
	onPath := make([]bool, g.NumNodes())
	depth := 0
	var dfs func(cur int)
	dfs = func(cur int) {
		if cur == dst {
			count++
			return
		}
		if depth >= maxHops {
			return
		}
		onPath[cur] = true
		depth++
		for _, id := range g.Incident(cur) {
			next := g.Edge(id).Other(cur)
			if !onPath[next] && next != src {
				dfs(next)
			}
		}
		depth--
		onPath[cur] = false
	}
	dfs(src)
	return count
}

// MinCostPath finds, via exhaustive simple-path enumeration, the
// minimum-cost path from src to dst using at most maxHops edges. It
// returns ok=false when no path within the hop bound exists. Ties on cost
// are broken toward fewer hops, matching the paper's objective statement
// ("minimal hops distance priority whenever minimum response time is
// achieved").
func MinCostPath(g *Graph, src, dst, maxHops int, costFn EdgeCost) (Path, float64, bool) {
	paths := AllSimplePaths(g, src, dst, maxHops, 0)
	best, bestCost, ok := pickBest(g, paths, costFn)
	return best, bestCost, ok
}

func pickBest(g *Graph, paths []Path, costFn EdgeCost) (Path, float64, bool) {
	bestCost := math.Inf(1)
	bestIdx := -1
	for i, p := range paths {
		c := p.Cost(g, costFn)
		// Impassable routes never win, and a NaN cost (a pathological
		// costFn) must not capture bestIdx — every later comparison
		// against NaN is false, which would freeze it as the winner.
		if math.IsInf(c, 1) || math.IsNaN(c) {
			continue
		}
		switch {
		case bestIdx < 0:
			bestCost, bestIdx = c, i
		case ApproxEqual(c, bestCost):
			// Tie on cost: minimal hops distance priority.
			if p.Hops() < paths[bestIdx].Hops() {
				bestCost, bestIdx = c, i
			}
		case c < bestCost:
			bestCost, bestIdx = c, i
		}
	}
	if bestIdx < 0 {
		return Path{}, math.Inf(1), false
	}
	return paths[bestIdx], bestCost, true
}

// unsetEdge marks a node with no predecessor in a DP layer.
const unsetEdge = EdgeID(-1)

// DPScratch holds the reusable buffers of the hop-bounded DP so that
// repeated calls — a route-pipeline worker sweeping many sources — stop
// reallocating O(maxHops·N) memory per call. The zero value is ready to
// use. A scratch must not be shared between concurrent calls; give each
// worker its own.
type DPScratch struct {
	cur, next []float64
	// moved marks the nodes whose cost dropped in the layer being built;
	// active and nextActive list the nodes that moved in the previous and
	// in the current layer.
	moved              []bool
	active, nextActive []int
	// pred holds the predecessor layers back to back: layer h is
	// pred[h·n : (h+1)·n].
	pred []EdgeID
	// rev collects every path's edges in dst-to-src order, node v's at
	// rev[start[v]:start[v+1]].
	rev   []EdgeID
	start []int

	// The unbounded-hop row (tree.go): per-node depth, tree edge and
	// pass flags; the nodes by depth; the FIFO of the settle and depth
	// passes; a repair's worklists (subtree, roots, nodes whose dist or
	// depth moved) and the edges whose cost it found changed.
	hops    []int
	parent  []EdgeID
	flags   []uint8
	order   []int
	fifo    []int
	queue   []int
	roots   []int
	touched []int
	changed []EdgeID
}

// buffers sizes the per-node buffers for n nodes.
func (sc *DPScratch) buffers(n int) {
	if cap(sc.cur) < n {
		sc.cur = make([]float64, n)
		sc.next = make([]float64, n)
		sc.moved = make([]bool, n)
		sc.active = make([]int, 0, n)
		sc.nextActive = make([]int, 0, n)
		sc.start = make([]int, n+1)
	}
}

// layer returns the predecessor layer for hop h sized for n nodes. The
// store grows geometrically, keeping layers 0..h−1, so early convergence
// never pays for the full hop bound.
func (sc *DPScratch) layer(h, n int) []EdgeID {
	if need := (h + 1) * n; len(sc.pred) < need {
		grown := make([]EdgeID, 2*need)
		copy(grown, sc.pred[:h*n])
		sc.pred = grown
	}
	return sc.pred[h*n : (h+1)*n]
}

// ShortestPaths computes the minimum path cost from src to every node
// using at most maxHops edges, under the per-edge cost vector w indexed by
// EdgeID (see CostVector). Costs must be nonnegative, +Inf marking an
// impassable edge; an optimal bounded walk is then a simple path. It
// returns dist (+Inf if unreachable within the bound) and the realizing
// path per node. The returned slices are freshly allocated — callers may
// retain them (route caches do) across further calls on the same scratch.
// All paths of one call share a single edge arena, each path capped at its
// own length, so a source costs a constant number of allocations.
//
// Under unbounded hops (UnboundedHops) it returns the paths of the
// shortest-path-tree row defined in tree.go (ShortestTree returns the row
// itself, which RepairTree brings up to date after cost changes). Under a
// hop bound it runs the Bellman–Ford-style layered DP below.
//
// The recurrence is that of relaxing every edge, in ascending EdgeID
// order with a strict <, on every layer — but layer h relaxes only the
// edges out of nodes whose cost dropped in layer h−1. A node that did not
// move was relaxed across the same edge with the same value in an earlier
// layer, which left the far end at or below that value, so the skipped
// relaxation could not fire. Among equal candidates for one node the
// ascending scan keeps the lowest edge ID; relaxing out of the moved nodes
// in any order keeps the same one by breaking exact ties toward the lower
// ID. dist and every predecessor are therefore bit-identical to the full
// scan's.
//
// Reconstruction walks per-layer predecessor edges that are copied down
// layer to layer: pred[h][v] is the edge of v's best ≤h-hop path, so the
// walk (v,h) → (u,h−1) maintains dist[h][v] = dist[h−1][u] + w(e)
// exactly, and the rebuilt path's cost always telescopes to dist[v] — the
// summation order matches, so Path.Cost reproduces dist bit for bit.
func (sc *DPScratch) ShortestPaths(g *Graph, src, maxHops int, w []float64) ([]float64, []Path) {
	n := g.NumNodes()
	if UnboundedHops(maxHops, n) {
		sc.tree(g, src, w)
		return sc.treePaths(g, src)
	}
	sc.buffers(n)
	cur, next, moved := sc.cur[:n], sc.next[:n], sc.moved[:n]
	for v := range cur {
		cur[v] = math.Inf(1)
		moved[v] = false
	}
	cur[src] = 0
	active, nextActive := append(sc.active[:0], src), sc.nextActive[:0]
	pred0 := sc.layer(0, n)
	for v := range pred0 {
		pred0[v] = unsetEdge
	}
	top := 0
	for h := 1; h <= maxHops && len(active) > 0; h++ {
		predH := sc.layer(h, n)
		copy(predH, sc.pred[(h-1)*n:h*n])
		copy(next, cur)
		nextActive = nextActive[:0]
		for _, u := range active {
			du := cur[u]
			for _, id := range g.adj[u] {
				e := &g.edges[id]
				v := e.U
				if v == u {
					v = e.V
				}
				if d := du + w[id]; d < next[v] || d == next[v] && moved[v] && id < predH[v] {
					next[v] = d
					predH[v] = id
					if !moved[v] {
						moved[v] = true
						nextActive = append(nextActive, v)
					}
				}
			}
		}
		for _, v := range nextActive {
			moved[v] = false
		}
		cur, next = next, cur
		active, nextActive = nextActive, active
		top = h
	}
	sc.active, sc.nextActive = active, nextActive
	dist := make([]float64, n)
	copy(dist, cur)

	// One walk per node collects its edges in reverse; the arena then
	// receives them in order at the same offsets.
	rev, start := sc.rev[:0], sc.start[:n+1]
	for v := range dist {
		start[v] = len(rev)
		if v == src || math.IsInf(dist[v], 1) {
			continue
		}
		for node, h := v, top; node != src; h-- {
			id := sc.pred[h*n+node]
			if id == unsetEdge {
				// A finite dist guarantees a predecessor chain reaching src
				// within top hops; an unset edge here means the DP's own
				// invariants are broken, never a representable route state.
				panic(fmt.Sprintf("graph: hop-bounded reconstruction invariant broken at node %d (src %d, hop %d)", node, src, h))
			}
			rev = append(rev, id)
			if e := &g.edges[id]; e.U == node {
				node = e.V
			} else {
				node = e.U
			}
		}
	}
	start[n] = len(rev)
	sc.rev = rev
	arena := make([]EdgeID, len(rev))
	paths := make([]Path, n)
	for v := range paths {
		paths[v] = Path{Src: src, Dst: v}
		a, b := start[v], start[v+1]
		if a == b {
			continue
		}
		edges := arena[a:b:b]
		for i, id := range rev[a:b] {
			edges[len(edges)-1-i] = id
		}
		paths[v].Edges = edges
	}
	return dist, paths
}

// HopBoundedShortest is the one-off entry point: it prices every edge
// with costFn once (CostVector) and runs DPScratch.ShortestPaths on a
// fresh scratch. Route rounds build one cost vector and keep a scratch per
// worker instead.
//
// This is the polynomial-time alternative to exhaustive enumeration; the
// ablation bench BenchmarkAblationPathStrategies compares the two.
func HopBoundedShortest(g *Graph, src, maxHops int, costFn EdgeCost) ([]float64, []Path) {
	var sc DPScratch
	return sc.ShortestPaths(g, src, maxHops, CostVector(g, costFn))
}

// EdgeFrontier marks, per edge ID, whether the edge can appear on any path
// from src using at most maxHops edges: its nearer endpoint must lie
// within maxHops−1 hops of src. maxHops <= 0 means unbounded. Route caches
// use this as the invalidation frontier — a rate change outside a source's
// frontier cannot affect any of its hop-bounded routes.
func EdgeFrontier(g *Graph, src, maxHops int) []bool {
	if maxHops <= 0 {
		maxHops = g.NumNodes()
	}
	dist := g.HopDistances(src)
	out := make([]bool, g.NumEdges())
	for i, e := range g.edges {
		nearest := -1
		if du := dist[e.U]; du >= 0 {
			nearest = du
		}
		if dv := dist[e.V]; dv >= 0 && (nearest < 0 || dv < nearest) {
			nearest = dv
		}
		if nearest >= 0 && nearest <= maxHops-1 {
			out[i] = true
		}
	}
	return out
}

type costItem struct {
	node int
	cost float64
}

// costHeap is a minimal binary min-heap; container/heap's interface
// indirection is avoided on this hot path.
type costHeap struct{ items []costItem }

func (h *costHeap) Len() int { return len(h.items) }

func (h *costHeap) push(it costItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].cost <= h.items[i].cost {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *costHeap) pop() costItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].cost < h.items[small].cost {
			small = l
		}
		if r < len(h.items) && h.items[r].cost < h.items[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
