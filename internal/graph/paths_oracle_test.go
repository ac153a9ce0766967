package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleDPScratch and its hopBoundedShortest are the hop-bounded DP as it
// stood before the cost-vector rewrite, kept verbatim as the oracle: it
// calls costFn for every edge on every layer and relaxes every edge on
// every layer. The production DP must reproduce its dist bit for bit and
// its paths edge for edge.
type oracleDPScratch struct {
	cur, next []float64
	pred      [][]EdgeID
}

func (sc *oracleDPScratch) buffers(n int) (cur, next []float64) {
	if cap(sc.cur) < n {
		sc.cur = make([]float64, n)
		sc.next = make([]float64, n)
	}
	return sc.cur[:n], sc.next[:n]
}

func (sc *oracleDPScratch) layer(h, n int) []EdgeID {
	for len(sc.pred) <= h {
		sc.pred = append(sc.pred, nil)
	}
	if cap(sc.pred[h]) < n {
		sc.pred[h] = make([]EdgeID, n)
	}
	sc.pred[h] = sc.pred[h][:n]
	return sc.pred[h]
}

func (sc *oracleDPScratch) hopBoundedShortest(g *Graph, src, maxHops int, costFn EdgeCost) ([]float64, []Path) {
	n := g.NumNodes()
	if maxHops <= 0 || maxHops > n {
		maxHops = n
	}
	const unset = EdgeID(-1)
	cur, next := sc.buffers(n)
	for v := range cur {
		cur[v] = math.Inf(1)
	}
	cur[src] = 0
	pred0 := sc.layer(0, n)
	for v := range pred0 {
		pred0[v] = unset
	}
	top := 0
	for h := 1; h <= maxHops; h++ {
		predH := sc.layer(h, n)
		copy(predH, sc.pred[h-1][:n])
		copy(next, cur)
		improved := false
		for _, e := range g.edges {
			c := costFn(e)
			if math.IsInf(c, 1) {
				continue
			}
			if d := cur[e.U] + c; d < next[e.V] {
				next[e.V] = d
				predH[e.V] = e.ID
				improved = true
			}
			if d := cur[e.V] + c; d < next[e.U] {
				next[e.U] = d
				predH[e.U] = e.ID
				improved = true
			}
		}
		cur, next = next, cur
		top = h
		if !improved {
			break
		}
	}
	dist := make([]float64, n)
	copy(dist, cur)
	paths := make([]Path, n)
	for v := 0; v < n; v++ {
		if math.IsInf(dist[v], 1) || v == src {
			paths[v] = Path{Src: src, Dst: v}
			continue
		}
		rev := make([]EdgeID, 0, top)
		node, h := v, top
		for node != src {
			id := sc.pred[h][node]
			if id == unset {
				panic(fmt.Sprintf("graph: hop-bounded reconstruction invariant broken at node %d (src %d, hop %d)", node, src, h))
			}
			rev = append(rev, id)
			node = g.Edge(id).Other(node)
			h--
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		paths[v] = Path{Src: src, Dst: v, Edges: rev}
	}
	return dist, paths
}

// dpCase is one graph and cost function the oracle comparison runs on.
type dpCase struct {
	name string
	g    *Graph
	cost EdgeCost
}

func utilizedCost(e Edge) float64 { return InverseRate(e.UtilizedMbps()) }

// dpOracleCases covers the shapes the route DP meets: random graphs at
// several densities, a fat-tree with uniform utilization (every equal-hop
// route ties exactly), line/ring/star, unit cost, impassable edges and a
// disconnected graph.
func dpOracleCases(rng *rand.Rand) []dpCase {
	var cases []dpCase
	for _, p := range []float64{0.05, 0.15, 0.4, 0.9} {
		for k := 0; k < 3; k++ {
			g := RandomConnected(6+rng.Intn(40), p, 1000, rng)
			RandomizeUtilization(g, 0.05, 0.95, rng)
			cases = append(cases, dpCase{fmt.Sprintf("random-p%.2f-%d", p, k), g, utilizedCost})
		}
	}
	for _, k := range []int{4, 6} {
		g := FatTree(k, 1000)
		for i := 0; i < g.NumEdges(); i++ {
			g.SetUtilization(EdgeID(i), 0.5)
		}
		cases = append(cases, dpCase{fmt.Sprintf("fattree-%d-uniform", k), g, utilizedCost})
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"line", Line(9, 100)}, {"ring", Ring(10, 100)}, {"star", Star(8, 100)}} {
		RandomizeUtilization(c.g, 0.1, 0.9, rng)
		cases = append(cases, dpCase{c.name, c.g, utilizedCost})
	}
	cases = append(cases, dpCase{"unit-cost", RandomConnected(25, 0.2, 1000, rng), UnitCost})

	g := RandomConnected(30, 0.15, 1000, rng)
	RandomizeUtilization(g, 0.1, 0.9, rng)
	for i := 0; i < g.NumEdges(); i += 3 {
		g.SetUtilization(EdgeID(i), 0) // zero rate: +Inf cost
	}
	cases = append(cases, dpCase{"impassable", g, utilizedCost})

	d := New(9)
	d.AddEdge(0, 1, 100)
	d.AddEdge(1, 2, 100)
	d.AddEdge(0, 2, 100)
	d.AddEdge(3, 4, 100)
	d.AddEdge(5, 6, 100)
	d.AddEdge(6, 7, 100)
	RandomizeUtilization(d, 0.2, 0.8, rng)
	cases = append(cases, dpCase{"disconnected", d, utilizedCost})
	return cases
}

// TestShortestPathsMatchesOracle is the DP exactness gate: from every
// source, under bounded and unbounded hops, with one scratch shared across
// graphs of different sizes, the cost-vector DP returns the oracle's dist
// bit for bit and its paths edge for edge.
func TestShortestPathsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var shared DPScratch
	for _, tc := range dpOracleCases(rng) {
		n := tc.g.NumNodes()
		w := CostVector(tc.g, tc.cost)
		for src := 0; src < n; src++ {
			for _, maxHops := range []int{0, 1, 2, 3, n - 1, n, n + 5} {
				var oracle oracleDPScratch
				wantDist, wantPaths := oracle.hopBoundedShortest(tc.g, src, maxHops, tc.cost)
				gotDist, gotPaths := shared.ShortestPaths(tc.g, src, maxHops, w)
				label := fmt.Sprintf("%s src %d maxHops %d", tc.name, src, maxHops)
				pathsIdentical(t, label, wantDist, wantPaths, gotDist, gotPaths)
			}
		}
	}
}

// TestHopBoundedShortestWrapperMatchesOracle: the costFn entry point is the
// cost vector plus the same DP.
func TestHopBoundedShortestWrapperMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range dpOracleCases(rng) {
		for _, maxHops := range []int{0, 2} {
			var oracle oracleDPScratch
			wantDist, wantPaths := oracle.hopBoundedShortest(tc.g, 0, maxHops, tc.cost)
			gotDist, gotPaths := HopBoundedShortest(tc.g, 0, maxHops, tc.cost)
			pathsIdentical(t, fmt.Sprintf("%s maxHops %d", tc.name, maxHops), wantDist, wantPaths, gotDist, gotPaths)
		}
	}
}

func pathsIdentical(t *testing.T, label string, wantDist []float64, wantPaths []Path, gotDist []float64, gotPaths []Path) {
	t.Helper()
	if len(gotDist) != len(wantDist) || len(gotPaths) != len(wantPaths) {
		t.Fatalf("%s: sizes %d/%d, want %d/%d", label, len(gotDist), len(gotPaths), len(wantDist), len(wantPaths))
	}
	for v := range wantDist {
		if math.Float64bits(gotDist[v]) != math.Float64bits(wantDist[v]) {
			t.Fatalf("%s node %d: dist %v (%#x), oracle %v (%#x)", label, v,
				gotDist[v], math.Float64bits(gotDist[v]), wantDist[v], math.Float64bits(wantDist[v]))
		}
		gp, wp := gotPaths[v], wantPaths[v]
		if gp.Src != wp.Src || gp.Dst != wp.Dst || len(gp.Edges) != len(wp.Edges) {
			t.Fatalf("%s node %d: path %+v, oracle %+v", label, v, gp, wp)
		}
		for i := range wp.Edges {
			if gp.Edges[i] != wp.Edges[i] {
				t.Fatalf("%s node %d: path edge %d is %d, oracle %d", label, v, i, gp.Edges[i], wp.Edges[i])
			}
		}
	}
}

// TestShortestPathsAllocsConstantInN: with a warm scratch, one source's DP
// allocates the same small number of objects whatever the graph size —
// dist, the path headers and one edge arena — instead of one slice per
// reachable node.
func TestShortestPathsAllocsConstantInN(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var allocs []float64
	for _, n := range []int{20, 80, 320} {
		g := RandomConnected(n, 8/float64(n), 1000, rng)
		RandomizeUtilization(g, 0.1, 0.9, rng)
		w := CostVector(g, utilizedCost)
		var sc DPScratch
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			sc.ShortestPaths(g, 0, 0, w)
		}))
	}
	for _, a := range allocs {
		if a != allocs[0] || a > 4 {
			t.Fatalf("allocs per source across n = 20, 80, 320: %v, want one constant ≤ 4", allocs)
		}
	}
}

// TestShortestPathsArenaIsolation: paths share one edge arena, so each
// must be capped at its own length — appending to one path must never
// overwrite the next path's edges.
func TestShortestPathsArenaIsolation(t *testing.T) {
	g := Line(6, 100)
	RandomizeUtilization(g, 0.2, 0.8, rand.New(rand.NewSource(3)))
	_, paths := HopBoundedShortest(g, 0, 0, utilizedCost)
	for v := 1; v < 5; v++ {
		next := append([]EdgeID(nil), paths[v+1].Edges...)
		_ = append(paths[v].Edges, 99)
		for i, id := range paths[v+1].Edges {
			if id != next[i] {
				t.Fatalf("append to path %d overwrote path %d: %v, was %v", v, v+1, paths[v+1].Edges, next)
			}
		}
	}
}
