package graph

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// UnboundedHops reports whether a hop bound leaves every simple path of an
// n-node graph within reach (maxHops <= 0 means no bound). Under such a
// bound a source's routes form the shortest-path tree defined below.
func UnboundedHops(maxHops, n int) bool { return maxHops <= 0 || maxHops >= n }

// The unbounded-hop row of a source, defined independently of how it is
// computed so that a cold build and a repair return the same row bit for
// bit:
//
//   - dist[v] is the least left-to-right float64 sum of edge costs over
//     the walks from src to v (+Inf if none). Adding a nonnegative cost is
//     monotone under rounding, so this is the fixpoint every relaxation
//     order converges to — the layered DP's and Dijkstra's alike.
//   - An edge (u, v) is tight when dist[u] is finite and
//     dist[u] + w == dist[v] exactly.
//   - hops[v] is v's breadth-first depth over tight edges from src, and
//     pred[v] is the lowest-ID tight edge into v from a node at depth
//     hops[v]−1. The path to v follows pred back to src, so it has
//     hops[v] edges and its cost telescopes to dist[v].
//
// Every reachable node has a tight predecessor chain: walk back along a
// fewest-edge optimal walk to v; the first node whose prefix is not
// optimal for it ends a tight edge out of a node with a smaller dist, so
// induction on dist closes the chain at src.
//
// The row equals the layered DP's output except where two path sums round
// to one float: there the layered DP may keep a route whose prefix is not
// optimal for its own endpoint, which no per-node repair can reproduce.

// A Tree is one source's unbounded-hop row, held as the shortest-path tree
// it is: per node the dist, the pred edge and the depth. Path spells a
// route out on first request and keeps it. A Tree is otherwise immutable,
// so route caches and the tables they assemble share it, and it is safe
// for concurrent use.
type Tree struct {
	g    *Graph
	src  int
	dist []float64
	// pred[v] is v's tree edge, unsetEdge at the source and at unreachable
	// nodes; hops[v] is v's depth, −1 when unreachable.
	pred []EdgeID
	hops []int
	// routes[v] is Path(v) once requested.
	routes []atomic.Pointer[Path]
}

// Dist returns the minimum path cost to every node (+Inf if unreachable).
// The slice is the tree's own and must not be modified.
func (t *Tree) Dist() []float64 { return t.dist }

// Path returns the route from the source to v, with no edges when v is the
// source or unreachable. The edges are shared by every call for v and must
// not be modified.
func (t *Tree) Path(v int) Path {
	if p := t.routes[v].Load(); p != nil {
		return *p
	}
	k := t.hops[v]
	if k <= 0 {
		return Path{Src: t.src, Dst: v}
	}
	p := &Path{Src: t.src, Dst: v, Edges: make([]EdgeID, k)}
	for node, i := v, k-1; i >= 0; i-- {
		id := t.pred[node]
		p.Edges[i] = id
		node = t.g.far(id, node)
	}
	t.routes[v].Store(p)
	return *p
}

// Uses reports whether some route of the tree traverses edge id, which is
// when id is the pred edge of one of its endpoints.
func (t *Tree) Uses(id EdgeID) bool {
	e := &t.g.edges[id]
	return t.pred[e.U] == id || t.pred[e.V] == id
}

// treeBuffers sizes the buffers of the unbounded-hop row for n nodes.
func (sc *DPScratch) treeBuffers(n int) {
	sc.buffers(n)
	if cap(sc.hops) < n {
		sc.hops = make([]int, n)
		sc.parent = make([]EdgeID, n)
		sc.flags = make([]uint8, n)
		sc.order = make([]int, 0, n)
	}
}

// Node flags of the unbounded-hop row's passes.
const (
	queued    uint8 = 1 << iota // on the FIFO of settle or of the depth pass
	distStale                   // repair: dist re-derived, the old route got dearer
	hopsStale                   // repair: depth re-derived, the old tight chain broke
	hopsMoved                   // repair: depth re-derived or lowered
	predDone                    // repair: pred re-derived
)

// ShortestTree returns src's unbounded-hop row under the cost vector w
// (see CostVector): the row whose paths ShortestPaths returns under
// unbounded hops.
func (sc *DPScratch) ShortestTree(g *Graph, src int, w []float64) *Tree {
	sc.tree(g, src, w)
	return sc.newTree(g, src)
}

// tree builds src's row in the scratch — dist in cur, depths in hops, pred
// edges in parent, the reachable nodes by depth in order — with a
// label-correcting pass for dist and a breadth-first pass over the tight
// edges for hops and pred.
func (sc *DPScratch) tree(g *Graph, src int, w []float64) {
	n := g.NumNodes()
	sc.treeBuffers(n)
	d, hops, parent, flags := sc.cur[:n], sc.hops[:n], sc.parent[:n], sc.flags[:n]
	for v := range d {
		d[v] = math.Inf(1)
		hops[v] = -1
		parent[v] = unsetEdge
		flags[v] = 0
	}
	d[src] = 0
	sc.push(src)
	sc.settle(g, w, d)

	hops[src] = 0
	order := append(sc.order[:0], src)
	for i := 0; i < len(order); i++ {
		u := order[i]
		du, next := d[u], hops[u]+1
		for k, id := range g.adj[u] {
			v := g.ends[u][k]
			if du+w[id] != d[v] || math.IsInf(d[v], 1) { // !tight(du, w[id], d[v])
				continue
			}
			switch {
			case hops[v] < 0:
				hops[v], parent[v] = next, id
				order = append(order, v)
			case hops[v] == next && id < parent[v]:
				parent[v] = id
			}
		}
	}
	sc.order = order
}

// newTree copies the row built in the scratch into a Tree.
func (sc *DPScratch) newTree(g *Graph, src int) *Tree {
	n := g.NumNodes()
	sc.checkTree(src, n)
	return &Tree{
		g: g, src: src,
		dist:   slices.Clone(sc.cur[:n]),
		pred:   slices.Clone(sc.parent[:n]),
		hops:   slices.Clone(sc.hops[:n]),
		routes: make([]atomic.Pointer[Path], n),
	}
}

// checkTree panics unless every node with a finite dist in the scratch has
// a depth and, off the source, a pred edge: a finite dist guarantees a
// tight predecessor chain (see the row definition), so a missing one means
// dist is not the fixpoint.
func (sc *DPScratch) checkTree(src, n int) {
	for v, k := range sc.hops[:n] {
		if d := sc.cur[v]; k < 0 && !math.IsInf(d, 1) || k > 0 && sc.parent[v] == unsetEdge {
			panic(fmt.Sprintf("graph: no tight predecessor for node %d (src %d, dist %v)", v, src, d))
		}
	}
}

// far returns the endpoint of edge id that is not u.
func (g *Graph) far(id EdgeID, u int) int {
	if e := &g.edges[id]; e.U != u {
		return e.U
	}
	return g.edges[id].V
}

// tight reports whether an edge of cost w from a node at du reaches a node
// at dv exactly (du finite).
func tight(du, w, dv float64) bool {
	s := du + w
	return s == dv && !math.IsInf(s, 1)
}

// push queues v on the FIFO unless it is queued.
func (sc *DPScratch) push(v int) {
	if sc.flags[v]&queued == 0 {
		sc.flags[v] |= queued
		sc.fifo = append(sc.fifo, v)
	}
}

// settle relaxes out of the queued nodes, in FIFO order, until no edge
// improves d. The least walk sums are the one fixpoint below any start
// that bounds them from above, whatever the order, so a label-correcting
// pass needs no priority queue; on fleet-shaped graphs it is about twice
// as fast as Dijkstra's heap.
func (sc *DPScratch) settle(g *Graph, w, d []float64) {
	for i := 0; i < len(sc.fifo); i++ {
		u := sc.fifo[i]
		sc.flags[u] &^= queued
		du := d[u]
		for k, id := range g.adj[u] {
			if v := g.ends[u][k]; du+w[id] < d[v] {
				d[v] = du + w[id]
				sc.push(v)
			}
		}
	}
	sc.fifo = sc.fifo[:0]
}

// treePaths spells out every path of the row built in the scratch (see
// tree) in one edge arena, each path capped at its own length: nodes in
// order of depth, each path is its parent's path — already built — plus
// its pred edge. It returns them with a fresh copy of dist, ShortestPaths'
// result under unbounded hops.
func (sc *DPScratch) treePaths(g *Graph, src int) ([]float64, []Path) {
	n := g.NumNodes()
	sc.checkTree(src, n)
	hops, parent, start := sc.hops[:n], sc.parent[:n], sc.start[:n+1]
	total := 0
	for v, k := range hops {
		start[v] = total
		total += max(k, 0)
	}
	arena := make([]EdgeID, total)
	paths := make([]Path, n)
	for v := range paths {
		paths[v].Src, paths[v].Dst = src, v
	}
	for _, v := range sc.order[1:] {
		id := parent[v]
		a, b := start[v], start[v]+hops[v]
		edges := arena[a:b:b]
		for i, e := range paths[g.far(id, v)].Edges {
			edges[i] = e
		}
		edges[len(edges)-1] = id
		paths[v].Edges = edges
	}
	return slices.Clone(sc.cur[:n]), paths
}

// RepairTree returns old's source's row under the cost vector w, given
// that old is the row under the cost vector w0 on the same graph. The
// result is the Tree ShortestTree would return under w, bit for bit, and
// costs no more allocations; old is not modified, and is itself returned
// when nothing in it moves.
//
// Only what the edges whose cost changed can move is re-derived:
//
//   - dist: the subtrees hanging under a tree edge that got dearer lose
//     their distances and are re-seeded from their neighbours; those
//     seeds and the far ends of the edges that got cheaper start one
//     settle pass. Every other node keeps its old dist, an upper bound
//     (its old route did not get dearer), so the pass ends at the
//     fixpoint.
//   - hops: the subtrees under a node whose tree edge is no longer tight
//     lose their depths and are re-seeded from tight neighbours; those
//     seeds and every edge whose tightness can have changed — the edges
//     at a node whose dist moved and the edges whose cost changed — start
//     one pass that lowers depths across tight edges to the fixpoint.
//   - pred: re-derived in full where a node's dist or depth moved. Any
//     other node's inputs moved only through its edges to such nodes and
//     its edges whose cost changed, so its pred is re-derived only if it
//     was such an edge or such an edge now qualifies with a lower ID.
func (sc *DPScratch) RepairTree(old *Tree, w0, w []float64) *Tree {
	changed := sc.changed[:0]
	for i := range w {
		if w[i] != w0[i] {
			changed = append(changed, EdgeID(i))
		}
	}
	sc.changed = changed
	if len(changed) == 0 {
		return old
	}
	g, src, n := old.g, old.src, len(old.dist)
	sc.treeBuffers(n)
	d, hops, parent, flags := sc.cur[:n], sc.hops[:n], sc.parent[:n], sc.flags[:n]
	copy(d, old.dist)
	copy(hops, old.hops)
	copy(parent, old.pred)
	clear(flags)

	// dist. Any neighbour's current value is a realized walk sum, so a
	// seed taken from it is an upper bound too.
	roots := sc.roots[:0]
	for _, id := range changed {
		if w[id] > w0[id] {
			roots = sc.treeChild(g, roots, id)
		}
	}
	stale := sc.subtree(g, roots, distStale)
	for _, v := range stale {
		d[v] = math.Inf(1)
	}
	for _, v := range stale {
		for k, id := range g.adj[v] {
			if c := d[g.ends[v][k]] + w[id]; c < d[v] {
				d[v] = c
			}
		}
		if !math.IsInf(d[v], 1) {
			sc.push(v)
		}
	}
	for _, id := range changed {
		if e := &g.edges[id]; w[id] < w0[id] {
			for _, v := range [2]int{e.U, e.V} {
				if u := g.far(id, v); d[u]+w[id] < d[v] {
					d[v] = d[u] + w[id]
					sc.push(v)
				}
			}
		}
	}
	sc.settle(g, w, d)
	moved := sc.touched[:0] // nodes whose dist or depth changed
	for v := range d {
		if math.Float64bits(d[v]) != math.Float64bits(old.dist[v]) {
			moved = append(moved, v)
		}
	}
	distMoved := len(moved)

	// hops. A tree edge can stop being tight only where its child's dist,
	// its parent's dist or its own cost moved.
	roots = roots[:0]
	for _, x := range moved {
		roots = sc.broken(g, roots, src, x, d, w)
		for k, id := range g.adj[x] {
			if y := g.ends[x][k]; parent[y] == id {
				roots = sc.broken(g, roots, src, y, d, w)
			}
		}
	}
	for _, id := range changed {
		roots = sc.broken(g, roots, src, g.edges[id].U, d, w)
		roots = sc.broken(g, roots, src, g.edges[id].V, d, w)
	}
	sc.roots = roots
	stale = sc.subtree(g, roots, hopsStale)
	for _, v := range stale {
		hops[v] = -1
	}
	for _, v := range stale {
		moved = sc.markHops(moved, v)
		for k, id := range g.adj[v] {
			moved = sc.deepen(moved, g.ends[v][k], v, id, d, w)
		}
	}
	for _, x := range moved[:distMoved] {
		for k, id := range g.adj[x] {
			y := g.ends[x][k]
			moved = sc.deepen(moved, x, y, id, d, w)
			moved = sc.deepen(moved, y, x, id, d, w)
		}
	}
	for _, id := range changed {
		e := &g.edges[id]
		moved = sc.deepen(moved, e.U, e.V, id, d, w)
		moved = sc.deepen(moved, e.V, e.U, id, d, w)
	}
	for i := 0; i < len(sc.fifo); i++ {
		x := sc.fifo[i]
		flags[x] &^= queued
		for k, id := range g.adj[x] {
			moved = sc.deepen(moved, x, g.ends[x][k], id, d, w)
		}
	}
	sc.fifo = sc.fifo[:0]
	sc.touched = moved

	// pred.
	for _, x := range moved {
		sc.pred1(g, src, x, d, w)
	}
	for _, x := range moved {
		for k, id := range g.adj[x] {
			sc.recheck(g, src, x, g.ends[x][k], id, d, w)
		}
	}
	for _, id := range changed {
		e := &g.edges[id]
		sc.recheck(g, src, e.U, e.V, id, d, w)
		sc.recheck(g, src, e.V, e.U, id, d, w)
	}
	if len(moved) == 0 && slices.Equal(parent, old.pred) {
		return old
	}
	return sc.newTree(g, src)
}

// treeChild appends to roots the endpoint of edge id whose tree edge it is,
// if either's is.
func (sc *DPScratch) treeChild(g *Graph, roots []int, id EdgeID) []int {
	e := &g.edges[id]
	if sc.parent[e.U] == id {
		return append(roots, e.U)
	}
	if sc.parent[e.V] == id {
		return append(roots, e.V)
	}
	return roots
}

// broken appends v to roots when its old tree edge is no longer tight
// under d and w, or its reachability changed.
func (sc *DPScratch) broken(g *Graph, roots []int, src, v int, d, w []float64) []int {
	id := sc.parent[v]
	var intact bool
	switch {
	case v == src:
		intact = true
	case id == unsetEdge || math.IsInf(d[v], 1):
		intact = id == unsetEdge && math.IsInf(d[v], 1)
	default:
		intact = tight(d[g.far(id, v)], w[id], d[v])
	}
	if intact {
		return roots
	}
	return append(roots, v)
}

// markHops flags v's depth as moved, listing v once.
func (sc *DPScratch) markHops(moved []int, v int) []int {
	if sc.flags[v]&hopsMoved != 0 {
		return moved
	}
	sc.flags[v] |= hopsMoved
	return append(moved, v)
}

// deepen lowers v's depth across the edge id from u when the edge is tight
// and u's depth plus one beats v's, queueing v.
func (sc *DPScratch) deepen(moved []int, u, v int, id EdgeID, d, w []float64) []int {
	hu := sc.hops[u]
	if hu < 0 || sc.hops[v] >= 0 && hu+1 >= sc.hops[v] || !tight(d[u], w[id], d[v]) {
		return moved
	}
	sc.hops[v] = hu + 1
	sc.push(v)
	return sc.markHops(moved, v)
}

// subtree flags with bit every node of the current tree hanging under
// roots, roots included, and lists each once.
func (sc *DPScratch) subtree(g *Graph, roots []int, bit uint8) []int {
	out := sc.queue[:0]
	for _, r := range roots {
		if sc.flags[r]&bit == 0 {
			sc.flags[r] |= bit
			out = append(out, r)
		}
	}
	for i := 0; i < len(out); i++ {
		x := out[i]
		for k, id := range g.adj[x] {
			if y := g.ends[x][k]; sc.parent[y] == id && sc.flags[y]&bit == 0 {
				sc.flags[y] |= bit
				out = append(out, y)
			}
		}
	}
	sc.queue = out
	return out
}

// recheck re-derives v's pred if its inputs moved only through the edge id
// from u and that can change it: the edge was v's pred, or it now
// qualifies with a lower ID.
func (sc *DPScratch) recheck(g *Graph, src, u, v int, id EdgeID, d, w []float64) {
	p := sc.parent[v]
	if p == id || id < p && sc.hops[u] == sc.hops[v]-1 && tight(d[u], w[id], d[v]) {
		sc.pred1(g, src, v, d, w)
	}
}

// pred1 re-derives v's pred, once per repair: the lowest-ID tight edge
// into v from a node one level shallower.
func (sc *DPScratch) pred1(g *Graph, src, v int, d, w []float64) {
	if sc.flags[v]&predDone != 0 {
		return
	}
	sc.flags[v] |= predDone
	sc.parent[v] = unsetEdge
	if v == src || sc.hops[v] <= 0 {
		return
	}
	for k, id := range g.adj[v] {
		u := g.ends[v][k]
		if sc.hops[u] == sc.hops[v]-1 && (sc.parent[v] == unsetEdge || id < sc.parent[v]) && tight(d[u], w[id], d[v]) {
			sc.parent[v] = id
		}
	}
}
