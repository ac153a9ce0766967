package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1.0, 1.0, true},
		{0.0, 0.0, true},
		{0.1 + 0.7, 0.8, true}, // 0.7999999999999999 vs 0.8: a few-ulp tie
		{1.0, 1.0 + 1e-12, true},
		{1.0, 1.0 + 1e-6, false},
		{1.0, 2.0, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e300, false}, // the Inf guard: eps·Inf would compare true
		{1e300, math.Inf(1), false},
		{math.Inf(-1), math.Inf(-1), true},
		{math.Inf(-1), 0, false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), math.Inf(1), false},
		{math.NaN(), 1.0, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := ApproxEqual(c.b, c.a); got != c.want {
			t.Errorf("ApproxEqual(%g, %g) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// TestMinCostPathFloatTieBreaksOnHops pins the epsilon tie-break: a 2-hop
// route whose cost sum lands a few ulps below the 1-hop route's cost
// (0.1+0.7 = 0.7999999999999999 < 0.8) is a tie under the paper's rule,
// so the 1-hop route must win. Exact float comparison picks the 2-hop one.
func TestMinCostPathFloatTieBreaksOnHops(t *testing.T) {
	g := New(3)
	e01 := g.AddEdge(0, 1, 100)
	e12 := g.AddEdge(1, 2, 100)
	e02 := g.AddEdge(0, 2, 100)
	costs := map[EdgeID]float64{e01: 0.1, e12: 0.7, e02: 0.8}
	costFn := func(e Edge) float64 { return costs[e.ID] }

	p, c, ok := MinCostPath(g, 0, 2, 0, costFn)
	if !ok {
		t.Fatal("expected a path")
	}
	if p.Hops() != 1 {
		t.Fatalf("tie-break picked %d-hop path (cost %v), want the 1-hop direct edge", p.Hops(), c)
	}
}

// TestMinCostPathAllImpassable pins the ±Inf tie-breaking contract on a
// row where InverseRateCost marks every route impassable (all rates 0):
// no candidate may win, no Inf−Inf comparison may leak a NaN verdict,
// and the reported cost is +Inf with ok=false.
func TestMinCostPathAllImpassable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 3, 100)
	g.AddEdge(0, 2, 100)
	g.AddEdge(2, 3, 100)
	dead := InverseRateCost(func(Edge) float64 { return 0 })

	p, c, ok := MinCostPath(g, 0, 3, 0, dead)
	if ok || !math.IsInf(c, 1) || len(p.Edges) != 0 {
		t.Fatalf("all-impassable row produced a route: path=%+v cost=%v ok=%v", p, c, ok)
	}
}

// TestMinCostPathPartiallyImpassable: with exactly one passable route,
// the impassable alternatives never outrank it — even though their Inf
// costs compare "equal" to each other under the hardened ApproxEqual.
func TestMinCostPathPartiallyImpassable(t *testing.T) {
	g := New(4)
	e01 := g.AddEdge(0, 1, 100)
	e13 := g.AddEdge(1, 3, 100)
	e02 := g.AddEdge(0, 2, 100)
	e23 := g.AddEdge(2, 3, 100)
	rates := map[EdgeID]float64{e01: 0, e13: 0, e02: 50, e23: 50}
	costFn := InverseRateCost(func(e Edge) float64 { return rates[e.ID] })

	p, _, ok := MinCostPath(g, 0, 3, 0, costFn)
	if !ok {
		t.Fatal("expected the one passable route")
	}
	if nodes := p.Nodes(g); len(nodes) != 3 || nodes[1] != 2 {
		t.Fatalf("picked an impassable route: %v", nodes)
	}
}

// TestPickBestSkipsNaN: a NaN-cost path must not capture the winner slot
// (every later comparison against NaN is false, freezing it as "best").
func TestPickBestSkipsNaN(t *testing.T) {
	g := New(3)
	e01 := g.AddEdge(0, 1, 100)
	e12 := g.AddEdge(1, 2, 100)
	e02 := g.AddEdge(0, 2, 100)
	costs := map[EdgeID]float64{e01: math.NaN(), e12: 1, e02: 5}
	p, c, ok := MinCostPath(g, 0, 2, 0, func(e Edge) float64 { return costs[e.ID] })
	if !ok || c != 5 || p.Hops() != 1 {
		t.Fatalf("NaN path captured the winner: path=%+v cost=%v ok=%v", p, c, ok)
	}
}

// TestHopBoundedPathCostMatchesDistExactly checks the reconstruction
// invariant: every returned path's forward cost sum reproduces dist
// bit for bit (same summation order as the DP), on random graphs across
// hop bounds.
func TestHopBoundedPathCostMatchesDistExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		g := RandomConnected(n, 0.3, 1000, rng)
		RandomizeUtilization(g, 0.05, 0.95, rng)
		cost := InverseRateCost(func(e Edge) float64 { return e.UtilizedMbps() })
		w := CostVector(g, cost)
		for _, maxHops := range []int{1, 2, 3, n} {
			var sc DPScratch
			dist, paths := sc.ShortestPaths(g, 0, maxHops, w)
			for v := 0; v < n; v++ {
				if math.IsInf(dist[v], 1) {
					if len(paths[v].Edges) != 0 {
						t.Fatalf("unreachable node %d has a path", v)
					}
					continue
				}
				if got := paths[v].Cost(g, cost); got != dist[v] {
					t.Fatalf("trial %d maxHops %d node %d: path cost %v != dist %v",
						trial, maxHops, v, got, dist[v])
				}
				if h := paths[v].Hops(); h > maxHops {
					t.Fatalf("node %d path uses %d hops, bound %d", v, h, maxHops)
				}
			}
		}
	}
}

// TestDPScratchReuseMatchesFresh runs one scratch across many sources and
// graphs of different sizes and checks it returns exactly what a fresh
// scratch would.
func TestDPScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var shared DPScratch
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(25)
		g := RandomConnected(n, 0.4, 1000, rng)
		RandomizeUtilization(g, 0.1, 0.9, rng)
		w := CostVector(g, utilizedCost)
		for src := 0; src < n; src += 1 + rng.Intn(3) {
			maxHops := 1 + rng.Intn(n)
			gotDist, gotPaths := shared.ShortestPaths(g, src, maxHops, w)
			var fresh DPScratch
			wantDist, wantPaths := fresh.ShortestPaths(g, src, maxHops, w)
			for v := 0; v < n; v++ {
				if gotDist[v] != wantDist[v] && !(math.IsInf(gotDist[v], 1) && math.IsInf(wantDist[v], 1)) {
					t.Fatalf("src %d node %d: reused scratch dist %v, fresh %v", src, v, gotDist[v], wantDist[v])
				}
				if len(gotPaths[v].Edges) != len(wantPaths[v].Edges) {
					t.Fatalf("src %d node %d: path hop mismatch %d vs %d", src, v, gotPaths[v].Hops(), wantPaths[v].Hops())
				}
				for i := range gotPaths[v].Edges {
					if gotPaths[v].Edges[i] != wantPaths[v].Edges[i] {
						t.Fatalf("src %d node %d: path edge %d differs", src, v, i)
					}
				}
			}
		}
	}
}

func TestEdgeFrontierLine(t *testing.T) {
	// Line 0-1-2-3-4; from src 0 with maxHops=2 only the first two edges
	// can appear on a route (nearer endpoint within 1 hop).
	g := Line(5, 100)
	front := EdgeFrontier(g, 0, 2)
	want := []bool{true, true, false, false}
	for i, w := range want {
		if front[i] != w {
			t.Fatalf("edge %d: frontier %v, want %v (frontier %v)", i, front[i], w, front)
		}
	}
	// Unbounded: every edge of a connected graph is in the frontier.
	for i, in := range EdgeFrontier(g, 0, 0) {
		if !in {
			t.Fatalf("edge %d outside unbounded frontier", i)
		}
	}
}
