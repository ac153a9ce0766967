package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// definitionRow derives the unbounded-hop row's depths and pred edges from
// dist straight from the definition in tree.go, one depth at a time: a
// node joins depth k+1 through the lowest-ID tight edge out of depth k.
func definitionRow(g *Graph, src int, dist, w []float64) (hops []int, pred []EdgeID) {
	n := g.NumNodes()
	hops = make([]int, n)
	pred = make([]EdgeID, n)
	for v := range hops {
		hops[v], pred[v] = -1, unsetEdge
	}
	hops[src] = 0
	for k, grew := 0, true; grew; k++ {
		grew = false
		for v := 0; v < n; v++ {
			if hops[v] >= 0 {
				continue
			}
			for _, e := range g.edges {
				u := e.U
				if u == v {
					u = e.V
				} else if e.V != v {
					continue
				}
				if hops[u] == k && tight(dist[u], w[e.ID], dist[v]) && (pred[v] == unsetEdge || e.ID < pred[v]) {
					pred[v] = e.ID
				}
			}
			if pred[v] != unsetEdge {
				hops[v] = k + 1
				grew = true
			}
		}
	}
	return hops, pred
}

// treesIdentical fails unless got is want bit for bit: dist, every path's
// edges and the set of edges the routes use.
func treesIdentical(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	for v := range want.dist {
		if math.Float64bits(got.dist[v]) != math.Float64bits(want.dist[v]) {
			t.Fatalf("%s node %d: dist %v, cold %v", label, v, got.dist[v], want.dist[v])
		}
		if gp, wp := got.Path(v), want.Path(v); gp.Src != wp.Src || gp.Dst != wp.Dst || !slices.Equal(gp.Edges, wp.Edges) {
			t.Fatalf("%s node %d: path %+v, cold %+v", label, v, gp, wp)
		}
	}
	for id := range want.g.edges {
		if got.Uses(EdgeID(id)) != want.Uses(EdgeID(id)) {
			t.Fatalf("%s edge %d: uses %v, cold %v", label, id, got.Uses(EdgeID(id)), want.Uses(EdgeID(id)))
		}
	}
}

// checkDefinition fails unless tr's paths are the ones the row definition
// spells out from its dist, and ShortestPaths returns the same row.
func checkDefinition(t *testing.T, label string, g *Graph, w []float64, tr *Tree) {
	t.Helper()
	hops, pred := definitionRow(g, tr.src, tr.dist, w)
	if !slices.Equal(hops, tr.hops) || !slices.Equal(pred, tr.pred) {
		t.Fatalf("%s: depths %v preds %v, definition %v %v", label, tr.hops, tr.pred, hops, pred)
	}
	var sc DPScratch
	dist, paths := sc.ShortestPaths(g, tr.src, 0, w)
	for v := range dist {
		if math.Float64bits(dist[v]) != math.Float64bits(tr.dist[v]) || !slices.Equal(paths[v].Edges, tr.Path(v).Edges) {
			t.Fatalf("%s node %d: ShortestPaths %v %v, tree %v %v", label, v, dist[v], paths[v].Edges, tr.dist[v], tr.Path(v).Edges)
		}
	}
}

// TestTreeCollapseOnGrid pins a collapse instance, found by searching
// 5×5 grids with link utilizations from {0.25, 0.75, 1}: from node 19 the
// layered DP reaches node 11 along an 8-hop route whose sum rounds to the
// same float as the 6-hop route of the tight-edge tree. dist must still
// equal the verbatim layered oracle bit for bit, and the path must be the
// tight-edge breadth-first one.
func TestTreeCollapseOnGrid(t *testing.T) {
	util := []float64{0.75, 0.75, 0.25, 0.25, 0.25, 1, 0.25, 0.25, 0.75, 0.75, 1, 0.75, 1, 0.75, 1, 0.75, 0.25, 1, 0.75, 0.25,
		0.25, 0.25, 0.25, 0.25, 0.75, 1, 0.25, 0.25, 1, 0.75, 0.25, 0.25, 1, 1, 1, 0.75, 0.75, 1, 1, 0.25}
	g := Grid(5, 5, 1000)
	for i, u := range util {
		g.SetUtilization(EdgeID(i), u)
	}
	const src, dst = 19, 11
	w := CostVector(g, utilizedCost)
	var oracle oracleDPScratch
	wantDist, wantPaths := oracle.hopBoundedShortest(g, src, 0, utilizedCost)
	var sc DPScratch
	tr := sc.ShortestTree(g, src, w)
	for v := range wantDist {
		if math.Float64bits(tr.dist[v]) != math.Float64bits(wantDist[v]) {
			t.Fatalf("node %d: dist %v, layered oracle %v", v, tr.dist[v], wantDist[v])
		}
	}
	checkDefinition(t, "grid collapse", g, w, tr)

	layered, tree := wantPaths[dst], tr.Path(dst)
	if want := []EdgeID{33, 34, 38, 32, 29, 21}; !slices.Equal(tree.Edges, want) {
		t.Fatalf("tree path to %d: %v, want %v", dst, tree.Edges, want)
	}
	if slices.Equal(layered.Edges, tree.Edges) {
		t.Fatalf("no collapse: both paths are %v", tree.Edges)
	}
	lc, tc := layered.Cost(g, utilizedCost), tree.Cost(g, utilizedCost)
	if lc != tc || tc != tr.dist[dst] {
		t.Fatalf("path costs %v (layered, %d hops) and %v (tree, %d hops), dist %v: want one float",
			lc, layered.Hops(), tc, tree.Hops(), tr.dist[dst])
	}
}

// TestTreeAbsorbedWeight: an edge cost below half an ulp of its endpoint's
// dist (1e-300 beside 1) is absorbed, so the edge is tight both ways and
// the tight edges hold a cycle. Neither the cold row nor the repair may
// panic, and every repair must equal the cold row.
func TestTreeAbsorbedWeight(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1) // e0
	g.AddEdge(1, 2, 1) // e1: absorbed
	g.AddEdge(0, 2, 1) // e2
	g.AddEdge(2, 3, 1) // e3: absorbed
	g.AddEdge(3, 4, 1) // e4
	g.AddEdge(1, 4, 1) // e5
	w := []float64{1, 1e-300, 1, 1e-300, 2, 3}
	edits := [][]float64{
		{1, 1e-300, 2, 1e-300, 2, 3}, // dearer tree edge under an absorbed one
		{2, 1e-300, 1, 1e-300, 2, 3}, // the tie moves across
		{1, 1, 1, 1e-300, 2, 3},      // absorbed edge becomes real
		{1, 1e-300, 1, 1e-300, 1, 1}, // cheaper edges reach a node tied twice
		{1, math.Inf(1), 1, 1e-300, math.Inf(1), 1},
		{1, 1e-300, math.Inf(1), 1e-300, 2, 3},
		{1e-300, 1e-300, 1e-300, 1e-300, 1e-300, 1e-300},
		{1, 1e-300, 1, 1e-300, 2, 3},
	}
	var sc, cold DPScratch
	for src := 0; src < g.NumNodes(); src++ {
		tr, basis := sc.ShortestTree(g, src, w), w
		checkDefinition(t, fmt.Sprintf("src %d cold", src), g, w, tr)
		for i, next := range edits {
			label := fmt.Sprintf("src %d edit %d", src, i)
			tr, basis = sc.RepairTree(tr, basis, next), next
			want := cold.ShortestTree(g, src, next)
			treesIdentical(t, label, want, tr)
			checkDefinition(t, label, g, next, want)
		}
	}
}

// TestTreePathConcurrent: Path builds a route on first request and keeps
// it, so goroutines sharing a tree — a route table read while the next
// round runs — must all get the same route. Run it under -race.
func TestTreePathConcurrent(t *testing.T) {
	g, w := fleet160()
	var sc DPScratch
	tr := sc.ShortestTree(g, 0, w)
	_, want := sc.ShortestPaths(g, 0, 0, w)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range want {
				if got := tr.Path(v); !slices.Equal(got.Edges, want[v].Edges) {
					errs <- fmt.Sprintf("node %d: path %v, want %v", v, got.Edges, want[v].Edges)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// fuzzLevels are the edge costs FuzzRouteRowRepair draws from: equal-level
// routes tie exactly, 1/3 and 1/10 round, and 1e-300 is absorbed beside
// any of the others.
var fuzzLevels = []float64{1, 1.0 / 3, 0.1, 1e-300}

// FuzzRouteRowRepair pins the repair's exactness: a row repaired across
// any sequence of cost edits equals the cold row at the same costs — dist
// bits, path edges and the used edge set — and the cold row is the row
// definition's.
//
// Input layout: data[0]%6 picks a ring, line, star, random, fat-tree or
// grid graph sized by data[1]; 1 + data[2]%4 cost levels (fuzzLevels);
// one byte per edge picks its level, a byte ≡ 0 mod 7 making the edge
// impassable; the rest are edit rounds, each a header byte — 1 + h%4
// edits; with h&4 set, the rows of every other source (parity h>>3)
// stay unrepaired for the round, so their next repair spans several
// rounds of edits — then one (edge, level) byte pair per edit.
func FuzzRouteRowRepair(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 2, 3, 4, 5, 6, 8, 1, 0, 2, 1, 3, 4, 7, 9})
	f.Add([]byte{4, 0, 3, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 3, 0, 2, 5, 7, 9, 14, 3, 1, 1, 0})
	f.Add([]byte{5, 9, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 4, 3, 7, 5, 14, 6, 0, 1, 2, 2})
	random := []byte{3, 11, 3} // 39 edges
	for i := 0; i < 39; i++ {
		random = append(random, byte(4*i+1))
	}
	f.Add(append(random, 7, 0, 0, 1, 7, 2, 14, 3, 21, 2, 5, 1, 6, 2, 7, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		size := int(data[1])
		var g *Graph
		switch data[0] % 6 {
		case 0:
			g = Ring(3+size%10, 100)
		case 1:
			g = Line(2+size%10, 100)
		case 2:
			g = Star(3+size%10, 100)
		case 3:
			g = RandomConnected(4+size%12, 0.15+0.1*float64(size%5), 100, rand.New(rand.NewSource(int64(size))))
		case 4:
			g = FatTree(4, 100)
		default:
			g = Grid(2+size%4, 2+size/4%4, 100)
		}
		levels := fuzzLevels[:1+data[2]%4]
		m := g.NumEdges()
		if len(data) < 3+m {
			t.Skip()
		}
		cost := func(b byte) float64 {
			if b%7 == 0 {
				return math.Inf(1)
			}
			return levels[int(b)%len(levels)]
		}
		w := make([]float64, m)
		for i := range w {
			w[i] = cost(data[3+i])
		}

		n := g.NumNodes()
		var sc, cold DPScratch
		trees := make([]*Tree, n)
		basis := make([][]float64, n)
		for src := range trees {
			trees[src], basis[src] = sc.ShortestTree(g, src, w), w
			checkDefinition(t, fmt.Sprintf("src %d cold", src), g, w, trees[src])
		}
		rest := data[3+m:]
		for round := 0; len(rest) > 0 && round < 16; round++ {
			h := rest[0]
			edits := 1 + int(h%4)
			if len(rest) < 1+2*edits {
				break
			}
			w = slices.Clone(w)
			for k := 0; k < edits; k++ {
				w[int(rest[1+2*k])%m] = cost(rest[2+2*k])
			}
			rest = rest[1+2*edits:]
			for src := range trees {
				if h&4 != 0 && (src+int(h>>3))%2 == 0 {
					continue // the row keeps its older basis
				}
				label := fmt.Sprintf("round %d src %d", round, src)
				trees[src], basis[src] = sc.RepairTree(trees[src], basis[src], w), w
				want := cold.ShortestTree(g, src, w)
				treesIdentical(t, label, want, trees[src])
				checkDefinition(t, label, g, w, want)
			}
		}
	})
}

// fleet160 is the benchmark's fleet160 topology from seed 17 and its cost
// vector.
func fleet160() (*Graph, []float64) {
	rng := rand.New(rand.NewSource(17))
	g := RandomConnected(160, 0.05, 1000, rng)
	RandomizeUtilization(g, 0.3, 0.9, rng)
	return g, CostVector(g, utilizedCost)
}

// linkDrift returns rounds successive cost vectors of g, four random links
// re-drawn per round.
func linkDrift(g *Graph, rng *rand.Rand, rounds int) [][]float64 {
	ws := make([][]float64, rounds)
	for r := range ws {
		for i := 0; i < 4; i++ {
			g.SetUtilization(EdgeID(rng.Intn(g.NumEdges())), 0.3+0.6*rng.Float64())
		}
		ws[r] = CostVector(g, utilizedCost)
	}
	return ws
}

// TestRepairTreeAllocsNoMoreThanCold: on fleet160 under link_drift-style
// edits a repair allocates no more than a cold row, in objects and bytes.
func TestRepairTreeAllocsNoMoreThanCold(t *testing.T) {
	g, w0 := fleet160()
	ws := linkDrift(g, rand.New(rand.NewSource(5)), 40)
	var sc DPScratch
	trees := make([]*Tree, 0, 54)
	for src := 0; src < g.NumNodes(); src += 3 {
		trees = append(trees, sc.ShortestTree(g, src, w0))
	}
	round := 0
	repair := testing.AllocsPerRun(len(ws)-1, func() {
		prev, w := w0, ws[round]
		if round > 0 {
			prev = ws[round-1]
		}
		for i, tr := range trees {
			trees[i] = sc.RepairTree(tr, prev, w)
		}
		round++
	})
	cold := testing.AllocsPerRun(5, func() {
		for src := 0; src < g.NumNodes(); src += 3 {
			sc.ShortestTree(g, src, w0)
		}
	})
	if repair > cold {
		t.Fatalf("allocations per round of %d rows: repair %.1f, cold %.1f", len(trees), repair, cold)
	}
}

func BenchmarkShortestTreeFleet160(b *testing.B) {
	g, w := fleet160()
	var sc DPScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.ShortestTree(g, i%g.NumNodes(), w)
	}
}

// BenchmarkRepairTreeFleet160 repairs every third source's row round after
// round of link_drift edits; one op is one row.
func BenchmarkRepairTreeFleet160(b *testing.B) {
	g, w0 := fleet160()
	var sc DPScratch
	var trees []*Tree
	for src := 0; src < g.NumNodes(); src += 3 {
		trees = append(trees, sc.ShortestTree(g, src, w0))
	}
	ws := append([][]float64{w0}, linkDrift(g, rand.New(rand.NewSource(5)), 1+b.N/len(trees))...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, k := i/len(trees), i%len(trees)
		trees[k] = sc.RepairTree(trees[k], ws[r], ws[r+1])
	}
}
