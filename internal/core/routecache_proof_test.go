package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// everyThirdBusy classifies every third node busy and the rest candidates,
// with one unit of data per busy node so Seconds equals the per-unit dist.
func everyThirdBusy(g *graph.Graph) (*State, *Classification) {
	s := NewState(g)
	c := &Classification{}
	for v := 0; v < g.NumNodes(); v++ {
		s.DataMb[v] = 1
		if v%3 == 0 {
			c.Busy = append(c.Busy, v)
		} else {
			c.Candidates = append(c.Candidates, v)
		}
	}
	return s, c
}

// driftLinks applies one link_drift round: k random links get a new
// utilization drawn by draw, differing from the old by more than 2 %.
func driftLinks(g *graph.Graph, rng *rand.Rand, k int, draw func() float64) {
	for i := 0; i < k; i++ {
		id := graph.EdgeID(rng.Intn(g.NumEdges()))
		old := g.Edge(id).Utilization
		util := old
		for math.Abs(util-old) <= 0.02*math.Max(util, old) {
			util = draw()
		}
		g.SetUtilization(id, util)
	}
}

// TestRouteCacheUnboundedWarmEqualsCold: with unbounded hops — where the
// proof rule replaces the frontier — and ε = 0, a warm cache must equal a
// cold computation every round, route edges included, over 160 rounds of
// link_drift-style edits. The fat-tree draws from four utilization levels,
// so equal-hop routes tie exactly and edits keep creating and breaking
// exact ties.
func TestRouteCacheUnboundedWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	levels := []float64{0.25, 0.5, 0.75, 1}
	cases := []struct {
		name string
		g    *graph.Graph
		draw func() float64
	}{
		{"random-sparse", graph.RandomConnected(48, 0.08, 1000, rng), func() float64 { return 0.3 + 0.6*rng.Float64() }},
		{"random-dense", graph.RandomConnected(30, 0.3, 1000, rng), func() float64 { return 0.05 + 0.9*rng.Float64() }},
		{"fattree-ties", graph.FatTree(4, 1000), func() float64 { return levels[rng.Intn(len(levels))] }},
	}
	for _, tc := range cases {
		for i := 0; i < tc.g.NumEdges(); i++ {
			tc.g.SetUtilization(graph.EdgeID(i), tc.draw())
		}
		s, c := everyThirdBusy(tc.g)
		for _, maxHops := range []int{0, tc.g.NumNodes()} {
			p := Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: maxHops, Parallelism: 2}
			rc := NewRouteCache(p)
			for round := 0; round < 160; round++ {
				got, err := rc.ComputeRoutes(s, c)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ComputeRoutes(s, c, p)
				if err != nil {
					t.Fatal(err)
				}
				routeTablesIdentical(t, want, got, fmt.Sprintf("%s maxHops %d round %d", tc.name, maxHops, round))
				driftLinks(tc.g, rng, 4, tc.draw)
			}
			if st := rc.Stats(); st.Hits == 0 {
				t.Fatalf("%s: no row survived an edit round (%+v)", tc.name, st)
			}
		}
	}
}

// TestRouteCacheProofRule pins the unbounded-hops eviction test on a
// square 0-1-3 / 0-2-3 plus a detached pair 4-5, costs exact in binary:
// a cheaper edge evicts the row only if it reaches an endpoint at no more
// than that endpoint's cost (an exact tie counts), or makes an unreachable
// endpoint reachable.
func TestRouteCacheProofRule(t *testing.T) {
	build := func() (*graph.Graph, *State, *Classification) {
		g := graph.New(6)
		g.AddEdge(0, 1, 4) // e0: cost 1/4
		g.AddEdge(1, 3, 4) // e1: cost 1/4, dist[3] = 1/2
		g.AddEdge(0, 2, 4) // e2: cost 1/4
		g.AddEdge(2, 3, 4) // e3: cost 1 at utilization 1/4
		g.AddEdge(4, 5, 4) // e4: cut off from the source
		for i := 0; i < g.NumEdges(); i++ {
			g.SetUtilization(graph.EdgeID(i), 1)
		}
		g.SetUtilization(3, 0.25)
		s := NewState(g)
		for v := range s.DataMb {
			s.DataMb[v] = 1
		}
		return g, s, &Classification{Busy: []int{0}, Candidates: []int{1, 2, 3, 4, 5}}
	}
	cases := []struct {
		name  string
		edit  func(g *graph.Graph)
		evict int
	}{
		// e3 from 1 to 1/2: dist[2] + 1/2 = 3/4 > dist[3] = 1/2.
		{"cheaper-but-no-better-keeps", func(g *graph.Graph) { g.SetUtilization(3, 0.5) }, 0},
		// e3 from 1 to 1/4: dist[2] + 1/4 == dist[3], a new exact tie.
		{"exact-tie-evicts", func(g *graph.Graph) { g.SetUtilization(3, 1) }, 1},
		// e4 is between two unreachable nodes: nothing can change.
		{"detached-edge-keeps", func(g *graph.Graph) { g.SetUtilization(4, 0.5) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, s, c := build()
			p := Params{RateModel: RateUtilized, PathStrategy: PathDP}
			rc := NewRouteCache(p)
			if _, err := rc.ComputeRoutes(s, c); err != nil {
				t.Fatal(err)
			}
			tc.edit(g)
			got, err := rc.ComputeRoutes(s, c)
			if err != nil {
				t.Fatal(err)
			}
			if st := rc.Stats(); st.Evicted != tc.evict {
				t.Fatalf("stats = %+v, want %d evictions", st, tc.evict)
			}
			want, err := ComputeRoutes(s, c, p)
			if err != nil {
				t.Fatal(err)
			}
			routeTablesIdentical(t, want, got, tc.name)
		})
	}

	t.Run("impassable-to-passable-evicts", func(t *testing.T) {
		g, s, c := build()
		g.AddEdge(3, 4, 4) // e5: joins the detached pair, impassable at first
		g.SetUtilization(5, 0)
		p := Params{RateModel: RateUtilized, PathStrategy: PathDP}
		rc := NewRouteCache(p)
		before, err := rc.ComputeRoutes(s, c)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(before.Seconds[0][3], 1) {
			t.Fatalf("node 4 reachable behind an impassable edge: %v", before.Seconds[0][3])
		}
		g.SetUtilization(5, 0.5)
		got, err := rc.ComputeRoutes(s, c)
		if err != nil {
			t.Fatal(err)
		}
		if st := rc.Stats(); st.Evicted != 1 {
			t.Fatalf("stats = %+v, want the row evicted", st)
		}
		want, err := ComputeRoutes(s, c, p)
		if err != nil {
			t.Fatal(err)
		}
		routeTablesIdentical(t, want, got, "impassable to passable")
		if math.IsInf(got.Seconds[0][3], 1) {
			t.Fatal("node 4 still unreachable after its edge opened")
		}
	})
}

// TestRouteCacheProofRuleEvictsLessThanFrontier replays link_drift's edit
// shape on the fleet160 topology (RandomConnected(160, 0.05) from seed 17,
// every third node busy, four links re-drawn per round). Unbounded hops use
// the proof rule; a hop bound of n−1 computes the same routes but keeps the
// frontier rule, under which every edge lies in every frontier. The proof
// rule must evict fewer rows, counted, not timed.
func TestRouteCacheProofRuleEvictsLessThanFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet160 replay")
	}
	evicted := func(maxHops int) int {
		rng := rand.New(rand.NewSource(17))
		g := graph.RandomConnected(160, 0.05, 1000, rng)
		graph.RandomizeUtilization(g, 0.3, 0.9, rng)
		s, c := everyThirdBusy(g)
		rc := NewRouteCache(Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: maxHops, Parallelism: 2})
		for round := 0; round < 40; round++ {
			if _, err := rc.ComputeRoutes(s, c); err != nil {
				t.Fatal(err)
			}
			driftLinks(g, rng, 4, func() float64 { return 0.3 + 0.6*rng.Float64() })
		}
		return rc.Stats().Evicted
	}
	proof, frontier := evicted(0), evicted(159)
	t.Logf("rows evicted over 39 edit rounds: proof rule %d, frontier rule %d", proof, frontier)
	if proof >= frontier {
		t.Fatalf("proof rule evicted %d rows, frontier rule %d: want fewer", proof, frontier)
	}
}

// TestRoutesSeeOneOverlayUnderConcurrentObserve: while another goroutine
// keeps moving the measurement overlay, every table ComputeRoutes and the
// RouteCache return must price all of its routes against one overlay
// state — each route's cost under that state's cost vector equals its
// T_rmin bit for bit. Run it under -race.
func TestRoutesSeeOneOverlayUnderConcurrentObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomConnected(24, 0.2, 1000, rng)
	graph.RandomizeUtilization(g, 0.2, 0.8, rng)
	now := time.Unix(1_700_000_000, 0)
	mc := graph.NewMeasuredCosts(g, time.Hour, func() time.Time { return now })
	s, c := everyThirdBusy(g)
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP, Measured: mc, Parallelism: 2}

	// states holds every overlay state the observer produced, in order;
	// Observe and the append happen under mu, so once a round returns, the
	// state it read is in the list.
	var mu sync.Mutex
	f0, _ := mc.Factors(nil, g.NumEdges())
	states := [][]float64{f0}
	stop := make(chan struct{})
	done := make(chan struct{})
	edges := g.Edges()
	go func() {
		defer close(done)
		orng := rand.New(rand.NewSource(59))
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := edges[orng.Intn(len(edges))]
			mu.Lock()
			mc.Observe(e.U, e.V, time.Duration(1+orng.Intn(30))*time.Millisecond, 0, now)
			f, _ := mc.Factors(nil, g.NumEdges())
			states = append(states, f)
			mu.Unlock()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	rc := NewRouteCache(p)
	for round := 0; round < 150; round++ {
		var rt *RouteTable
		var err error
		if round%2 == 0 {
			rt, err = ComputeRoutes(s, c, p)
		} else {
			rt, err = rc.ComputeRoutes(s, c)
		}
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		seen := states
		mu.Unlock()
		if !pricedByOneState(g, rt, seen) {
			t.Fatalf("round %d: no single overlay state prices every route at its T_rmin", round)
		}
	}
}

// pricedByOneState reports whether some overlay state prices every
// finite route of rt at exactly its Seconds (the busy nodes carry one unit
// of data), searching from the newest state back.
func pricedByOneState(g *graph.Graph, rt *RouteTable, states [][]float64) bool {
	for k := len(states) - 1; k >= 0; k-- {
		w := make([]float64, g.NumEdges())
		for i := range w {
			w[i] = graph.InverseRate(g.Edge(graph.EdgeID(i)).UtilizedMbps() * states[k][i])
		}
		cost := func(e graph.Edge) float64 { return w[e.ID] }
		ok := true
		for bi := range rt.Seconds {
			for cj, sec := range rt.Seconds[bi] {
				if !math.IsInf(sec, 1) && rt.Route(bi, cj).Cost(g, cost) != sec {
					ok = false
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}
