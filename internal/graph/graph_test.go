package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(5)
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Fatalf("NumEdges = %d, want 0", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeOrdersEndpoints(t *testing.T) {
	g := New(3)
	id := g.AddEdge(2, 0, 100)
	e := g.Edge(id)
	if e.U != 0 || e.V != 2 {
		t.Fatalf("edge endpoints = %d-%d, want 0-2", e.U, e.V)
	}
	if e.CapMbps != 100 {
		t.Fatalf("CapMbps = %g, want 100", e.CapMbps)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	New(2).AddEdge(1, 1, 10)
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range node")
		}
	}()
	New(2).AddEdge(0, 5, 10)
}

func TestEdgeOther(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 10)
	e := g.Edge(id)
	if e.Other(0) != 1 || e.Other(1) != 0 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-endpoint")
		}
	}()
	g2 := New(3)
	id2 := g2.AddEdge(0, 1, 10)
	g2.Edge(id2).Other(2)
}

func TestUtilizationClamping(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 100)
	g.SetUtilization(id, 1.5)
	if got := g.Edge(id).Utilization; got != 1 {
		t.Fatalf("utilization = %g, want clamp to 1", got)
	}
	g.SetUtilization(id, -0.3)
	if got := g.Edge(id).Utilization; got != 0 {
		t.Fatalf("utilization = %g, want clamp to 0", got)
	}
}

func TestAddUtilizedMbps(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 100)
	g.AddUtilizedMbps(id, 25)
	if got := g.Edge(id).Utilization; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.25", got)
	}
	g.AddUtilizedMbps(id, 1000)
	if got := g.Edge(id).Utilization; got != 1 {
		t.Fatalf("utilization = %g, want clamp to 1", got)
	}
	if got := g.Edge(id).UtilizedMbps(); got != 100 {
		t.Fatalf("UtilizedMbps = %g, want 100", got)
	}
	if got := g.Edge(id).AvailableMbps(); got != 0 {
		t.Fatalf("AvailableMbps = %g, want 0", got)
	}
}

func TestNeighborsSortedDeduped(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3, 10)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 1, 10) // parallel edge
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 3]", nb)
	}
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3 (parallel edges counted)", g.Degree(0))
	}
}

func TestEdgeBetweenPicksLeastUtilized(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 100)
	b := g.AddEdge(0, 1, 100)
	g.SetUtilization(a, 0.9)
	g.SetUtilization(b, 0.1)
	e, ok := g.EdgeBetween(0, 1)
	if !ok || e.ID != b {
		t.Fatalf("EdgeBetween = %+v ok=%v, want edge %d", e, ok, b)
	}
	if _, ok := g.EdgeBetween(1, 1); ok {
		t.Fatal("EdgeBetween(1,1) should not exist")
	}
}

func TestConnected(t *testing.T) {
	g := Line(4, 10)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	g2 := New(3)
	g2.AddEdge(0, 1, 10)
	if g2.Connected() {
		t.Fatal("graph with isolated node should not be connected")
	}
	if !New(0).Connected() {
		t.Fatal("empty graph is connected by convention")
	}
}

func TestHopDistances(t *testing.T) {
	g := Line(5, 10)
	d := g.HopDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	g2 := New(3)
	g2.AddEdge(0, 1, 10)
	d2 := g2.HopDistances(0)
	if d2[2] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", d2[2])
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Ring(4, 10)
	c := g.Clone()
	c.SetUtilization(0, 0.5)
	c.AddEdge(0, 2, 10)
	if g.Edge(0).Utilization != 0 {
		t.Fatal("mutating clone changed original utilization")
	}
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("adding edge to clone changed original edge count")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Ring(4, 10)
	g.edges[0].U, g.edges[0].V = g.edges[0].V, g.edges[0].U
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject unordered endpoints")
	}
}

// TestValidateRejectsNaN: NaN fails every ordered comparison, so range
// checks written as "outside the range" let it through. Validate must
// reject a NaN capacity and a NaN utilization.
func TestValidateRejectsNaN(t *testing.T) {
	g := Ring(4, 10)
	g.AddEdge(0, 2, math.NaN())
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN capacity")
	}
	g = Ring(4, 10)
	g.edges[1].Utilization = math.NaN()
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN utilization")
	}
}

// TestValidateReportsFirstBadEdge: adjacency faults are reported for the
// lowest bad edge, every time.
func TestValidateReportsFirstBadEdge(t *testing.T) {
	g := Ring(6, 10)
	g.adj[0] = append(g.adj[0], 5) // edge 5 (0-5) listed three times
	g.adj[3] = g.adj[3][:1]        // drops edge 3's entry at node 3
	want := "graph: edge 3 appears 1 times in adjacency lists, want 2"
	for range 20 {
		if err := g.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate = %v, want %q", err, want)
		}
	}
}

// TestUtilizationMutatorsPanicOnNaN: no clamp can place a NaN, so both
// utilization mutators refuse one instead of storing it.
func TestUtilizationMutatorsPanicOnNaN(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 100)
	inf := g.AddEdge(0, 1, math.Inf(1))
	for name, mutate := range map[string]func(){
		"SetUtilization(NaN)":      func() { g.SetUtilization(id, math.NaN()) },
		"AddUtilizedMbps(NaN)":     func() { g.AddUtilizedMbps(id, math.NaN()) },
		"AddUtilizedMbps(Inf/Inf)": func() { g.AddUtilizedMbps(inf, math.Inf(1)) },
	} {
		ver := g.Version()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			mutate()
		}()
		if g.Version() != ver {
			t.Errorf("%s bumped the version", name)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid after refused mutations: %v", err)
	}
}

func TestFatTreeSizes(t *testing.T) {
	cases := []struct{ k, nodes, edges int }{
		{4, 20, 32},
		{8, 80, 256},
		{16, 320, 2048},
		{64, 5120, 131072},
	}
	for _, c := range cases {
		n, e := FatTreeSizes(c.k)
		if n != c.nodes || e != c.edges {
			t.Errorf("FatTreeSizes(%d) = (%d, %d), want (%d, %d)", c.k, n, e, c.nodes, c.edges)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{4, 8} {
		g := FatTree(k, 1000)
		wantN, wantE := FatTreeSizes(k)
		if g.NumNodes() != wantN {
			t.Fatalf("k=%d: nodes = %d, want %d", k, g.NumNodes(), wantN)
		}
		if g.NumEdges() != wantE {
			t.Fatalf("k=%d: edges = %d, want %d", k, g.NumEdges(), wantE)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("k=%d: Validate: %v", k, err)
		}
		if !g.Connected() {
			t.Fatalf("k=%d: fat-tree must be connected", k)
		}
		// Degree invariants: edge switches have k/2 uplinks (hosts are not
		// modeled), agg switches have k/2 down + k/2 up = k, cores have k.
		for n := 0; n < g.NumNodes(); n++ {
			info := g.Node(n)
			var want int
			switch info.Layer {
			case LayerEdge:
				want = k / 2
			case LayerAgg, LayerCore:
				want = k
			default:
				t.Fatalf("k=%d: node %d has unexpected layer %v", k, n, info.Layer)
			}
			if got := g.Degree(n); got != want {
				t.Fatalf("k=%d: %s degree = %d, want %d", k, info.Name, got, want)
			}
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd k")
		}
	}()
	FatTree(3, 1000)
}

func TestFatTreeEdgeSwitches(t *testing.T) {
	es := FatTreeEdgeSwitches(4)
	if len(es) != 8 {
		t.Fatalf("len = %d, want 8", len(es))
	}
	g := FatTree(4, 1000)
	for _, n := range es {
		if g.Node(n).Layer != LayerEdge {
			t.Fatalf("node %d layer = %v, want edge", n, g.Node(n).Layer)
		}
	}
}

func TestFatTreePodLocality(t *testing.T) {
	// Any two edge switches in the same pod are exactly 2 hops apart
	// (via a shared aggregation switch).
	g := FatTree(4, 1000)
	d := g.HopDistances(0) // edge-p0-0
	if d[1] != 2 {
		t.Fatalf("intra-pod edge-edge distance = %d, want 2", d[1])
	}
	// Different pods: edge→agg→core→agg→edge = 4 hops.
	if d[4] != 4 {
		t.Fatalf("inter-pod edge-edge distance = %d, want 4", d[4])
	}
}

func TestGeneratorsShape(t *testing.T) {
	if g := Ring(5, 10); g.NumEdges() != 5 || !g.Connected() {
		t.Fatal("ring(5) malformed")
	}
	if g := Line(5, 10); g.NumEdges() != 4 || !g.Connected() {
		t.Fatal("line(5) malformed")
	}
	if g := Star(5, 10); g.NumEdges() != 4 || g.Degree(0) != 4 {
		t.Fatal("star(5) malformed")
	}
	if g := Grid(3, 4, 10); g.NumNodes() != 12 || g.NumEdges() != 3*3+2*4 || !g.Connected() {
		t.Fatal("grid(3,4) malformed")
	}
}

func TestRandomConnectedAlwaysConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := RandomConnected(n, rng.Float64()*0.3, 100, rng)
		if !g.Connected() {
			t.Fatalf("trial %d: random graph with %d nodes not connected", trial, n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
	}
}

func TestRandomizeUtilizationRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := FatTree(4, 1000)
	RandomizeUtilization(g, 0.2, 0.8, rng)
	for _, e := range g.Edges() {
		if e.Utilization < 0.2 || e.Utilization > 0.8 {
			t.Fatalf("edge %d utilization %g outside [0.2, 0.8]", e.ID, e.Utilization)
		}
	}
}

func TestAllSimplePathsLine(t *testing.T) {
	g := Line(4, 10)
	paths := AllSimplePaths(g, 0, 3, 0, 0)
	if len(paths) != 1 {
		t.Fatalf("line has %d paths end-to-end, want 1", len(paths))
	}
	if paths[0].Hops() != 3 {
		t.Fatalf("path hops = %d, want 3", paths[0].Hops())
	}
	nodes := paths[0].Nodes(g)
	for i, want := range []int{0, 1, 2, 3} {
		if nodes[i] != want {
			t.Fatalf("nodes = %v, want [0 1 2 3]", nodes)
		}
	}
}

func TestAllSimplePathsRing(t *testing.T) {
	g := Ring(6, 10)
	paths := AllSimplePaths(g, 0, 3, 0, 0)
	if len(paths) != 2 {
		t.Fatalf("ring(6) 0→3 has %d paths, want 2", len(paths))
	}
	// Hop bound cuts off the long way around: in a 7-ring the two 0→3
	// routes are 3 and 4 hops.
	g7 := Ring(7, 10)
	paths = AllSimplePaths(g7, 0, 3, 3, 0)
	if len(paths) != 1 {
		t.Fatalf("ring(7) 0→3 maxHops=3 has %d paths, want 1", len(paths))
	}
}

func TestAllSimplePathsPaperExample(t *testing.T) {
	// Figure 4's illustrative network: 7 nodes, 7 edges, S1 busy,
	// S2/S6 candidates. We rebuild a topology with the same flavor: a
	// triangle-ish mesh where multiple routes exist between S1 and S2.
	g := New(7)
	g.AddEdge(0, 1, 100) // e1: S1-S3
	g.AddEdge(1, 2, 100) // e2: S3-S2
	g.AddEdge(1, 3, 100) // e3: S3-S4
	g.AddEdge(3, 2, 100) // e4: S4-S2
	g.AddEdge(2, 4, 100) // e5: S2-S5
	g.AddEdge(4, 5, 100) // e6: S5-S6
	g.AddEdge(1, 6, 100) // e7: S3-S7
	paths := AllSimplePaths(g, 0, 2, 0, 0)
	// S1→S2: e1-e2 and e1-e3-e4.
	if len(paths) != 2 {
		t.Fatalf("S1→S2 has %d paths, want 2", len(paths))
	}
}

func TestAllSimplePathsLimit(t *testing.T) {
	g := FatTree(4, 1000)
	paths := AllSimplePaths(g, 0, 4, 6, 3)
	if len(paths) != 3 {
		t.Fatalf("limit=3 returned %d paths", len(paths))
	}
}

func TestAllSimplePathsSrcEqualsDst(t *testing.T) {
	g := Ring(4, 10)
	paths := AllSimplePaths(g, 2, 2, 0, 0)
	if len(paths) != 1 || paths[0].Hops() != 0 {
		t.Fatalf("src==dst should yield one empty path, got %v", paths)
	}
}

func TestCountSimplePathsMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := RandomConnected(8, 0.3, 100, rng)
		src, dst := 0, 7
		for _, maxHops := range []int{1, 2, 3, 5, 8} {
			want := len(AllSimplePaths(g, src, dst, maxHops, 0))
			if got := CountSimplePaths(g, src, dst, maxHops); got != want {
				t.Fatalf("trial %d maxHops %d: count = %d, enumeration = %d", trial, maxHops, got, want)
			}
		}
	}
}

func TestMinCostPathPrefersCheapRoute(t *testing.T) {
	g := New(3)
	direct := g.AddEdge(0, 2, 100)
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 2, 100)
	// Direct link nearly saturated → low available bandwidth → high cost.
	g.SetUtilization(direct, 0.99)
	cost := InverseRateCost(func(e Edge) float64 { return e.AvailableMbps() })
	p, c, ok := MinCostPath(g, 0, 2, 0, cost)
	if !ok {
		t.Fatal("no path found")
	}
	if p.Hops() != 2 {
		t.Fatalf("picked %d-hop path, want 2-hop detour", p.Hops())
	}
	want := 2.0 / 100.0
	if math.Abs(c-want) > 1e-12 {
		t.Fatalf("cost = %g, want %g", c, want)
	}
}

func TestMinCostPathTieBreaksOnHops(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3, 50)  // 1 hop, cost 1/50
	g.AddEdge(0, 1, 100) // 2 hops, each cost 1/100 → total 1/50
	g.AddEdge(1, 3, 100)
	g.AddEdge(0, 2, 100)
	g.AddEdge(2, 3, 100)
	cost := InverseRateCost(func(e Edge) float64 { return e.CapMbps })
	p, _, ok := MinCostPath(g, 0, 3, 0, cost)
	if !ok {
		t.Fatal("no path")
	}
	if p.Hops() != 1 {
		t.Fatalf("tie should break to 1 hop, got %d", p.Hops())
	}
}

func TestMinCostPathRespectsHopBound(t *testing.T) {
	g := Line(5, 100)
	cost := InverseRateCost(func(e Edge) float64 { return e.CapMbps })
	if _, _, ok := MinCostPath(g, 0, 4, 3, cost); ok {
		t.Fatal("4-hop-only destination should be unreachable with maxHops=3")
	}
	if _, _, ok := MinCostPath(g, 0, 4, 4, cost); !ok {
		t.Fatal("should be reachable with maxHops=4")
	}
}

func TestInverseRateCostImpassable(t *testing.T) {
	cost := InverseRateCost(func(e Edge) float64 { return e.AvailableMbps() })
	e := Edge{CapMbps: 100, Utilization: 1}
	if !math.IsInf(cost(e), 1) {
		t.Fatal("fully utilized edge should be impassable under available-bandwidth cost")
	}
}

func TestHopBoundedShortestMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		g := RandomConnected(9, 0.35, 100, rng)
		RandomizeUtilization(g, 0.1, 0.9, rng)
		cost := InverseRateCost(func(e Edge) float64 { return e.AvailableMbps() })
		for _, maxHops := range []int{1, 2, 3, 4, 8} {
			dist, paths := HopBoundedShortest(g, 0, maxHops, cost)
			for dst := 1; dst < g.NumNodes(); dst++ {
				_, want, okEnum := MinCostPath(g, 0, dst, maxHops, cost)
				if okEnum != !math.IsInf(dist[dst], 1) {
					t.Fatalf("trial %d dst %d maxHops %d: reachability mismatch (enum %v, dp %v)",
						trial, dst, maxHops, okEnum, dist[dst])
				}
				if !okEnum {
					continue
				}
				if math.Abs(dist[dst]-want) > 1e-9 {
					t.Fatalf("trial %d dst %d maxHops %d: dp cost %g, enum cost %g",
						trial, dst, maxHops, dist[dst], want)
				}
				// The reconstructed path must have the claimed cost and
				// respect the hop bound.
				p := paths[dst]
				if p.Hops() > maxHops {
					t.Fatalf("reconstructed path has %d hops > bound %d", p.Hops(), maxHops)
				}
				if got := p.Cost(g, cost); math.Abs(got-dist[dst]) > 1e-9 {
					t.Fatalf("reconstructed path cost %g != dp cost %g", got, dist[dst])
				}
			}
		}
	}
}

// dijkstra is the textbook single-source minimum cost with no hop bound,
// kept as the oracle of TestDijkstraMatchesUnboundedDP. Costs must be
// nonnegative; unreachable nodes get +Inf.
func dijkstra(g *Graph, src int, costFn EdgeCost) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &costHeap{items: []costItem{{node: src, cost: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, id := range g.Incident(it.node) {
			e := g.Edge(id)
			c := costFn(e)
			if math.IsInf(c, 1) {
				continue
			}
			m := e.Other(it.node)
			if nd := it.cost + c; nd < dist[m] {
				dist[m] = nd
				h.push(costItem{node: m, cost: nd})
			}
		}
	}
	return dist
}

// TestDijkstraMatchesUnboundedDP: the unbounded-hop row's dist is the
// least walk sum whatever the relaxation order, so the textbook Dijkstra
// and the bounded layered DP run to n hops agree with it bit for bit.
func TestDijkstraMatchesUnboundedDP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := RandomConnected(12, 0.25, 100, rng)
		RandomizeUtilization(g, 0, 0.95, rng)
		cost := InverseRateCost(func(e Edge) float64 { return e.AvailableMbps() })
		dj := dijkstra(g, 0, cost)
		dp, _ := HopBoundedShortest(g, 0, g.NumNodes(), cost)
		layered, _ := HopBoundedShortest(g, 0, g.NumNodes()-1, cost)
		for v := range dj {
			if math.Float64bits(dj[v]) != math.Float64bits(dp[v]) || math.Float64bits(dj[v]) != math.Float64bits(layered[v]) {
				t.Fatalf("trial %d node %d: dijkstra %g, row %g, layered dp %g", trial, v, dj[v], dp[v], layered[v])
			}
		}
	}
}

func TestPathCostProperty(t *testing.T) {
	// Property: for any seed, every enumerated path is simple, within the
	// hop bound, and its Nodes() sequence is consistent with its edges.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(7, 0.4, 100, rng)
		maxHops := 1 + rng.Intn(6)
		paths := AllSimplePaths(g, 0, 6, maxHops, 0)
		for _, p := range paths {
			if p.Hops() > maxHops {
				return false
			}
			nodes := p.Nodes(g)
			if nodes[0] != 0 || nodes[len(nodes)-1] != 6 {
				return false
			}
			seen := make(map[int]bool)
			for _, n := range nodes {
				if seen[n] {
					return false // not simple
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHopDistanceMatchesUnitCostDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(10, 0.3, 100, rng)
		bfs := g.HopDistances(0)
		dp, _ := HopBoundedShortest(g, 0, g.NumNodes(), UnitCost)
		for v := range bfs {
			if bfs[v] < 0 {
				if !math.IsInf(dp[v], 1) {
					return false
				}
				continue
			}
			if int(dp[v]) != bfs[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FatTree(4, 1000)
	RandomizeUtilization(g, 0.2, 0.8, rand.New(rand.NewSource(4)))
	// Keep pod 0 (nodes 0..3).
	sub, newToOld := g.InducedSubgraph([]int{0, 1, 2, 3})
	if sub.NumNodes() != 4 {
		t.Fatalf("sub nodes = %d, want 4", sub.NumNodes())
	}
	// Pod 0 internals: 2 edge × 2 agg fully connected = 4 edges.
	if sub.NumEdges() != 4 {
		t.Fatalf("sub edges = %d, want 4 intra-pod links", sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, old := range newToOld {
		if sub.Node(i).Name != g.Node(old).Name {
			t.Fatalf("metadata not carried for node %d", i)
		}
	}
	// Utilization carried over: compare one mapped edge.
	e := sub.Edge(0)
	orig, ok := g.EdgeBetween(newToOld[e.U], newToOld[e.V])
	if !ok {
		t.Fatal("sub edge has no original counterpart")
	}
	if e.Utilization != orig.Utilization || e.CapMbps != orig.CapMbps {
		t.Fatal("edge attributes not carried")
	}
}

func TestInducedSubgraphRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate nodes")
		}
	}()
	Ring(4, 10).InducedSubgraph([]int{1, 1})
}

func TestInducedSubgraphEmpty(t *testing.T) {
	sub, m := Ring(4, 10).InducedSubgraph(nil)
	if sub.NumNodes() != 0 || sub.NumEdges() != 0 || len(m) != 0 {
		t.Fatal("empty selection should yield an empty graph")
	}
}
