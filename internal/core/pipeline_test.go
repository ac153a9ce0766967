package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// routeTablesIdentical compares two route tables for bit-for-bit equality:
// same response times (including +Inf slots), same route edge lists, same
// enumeration counts.
func routeTablesIdentical(t *testing.T, want, got *RouteTable, label string) {
	t.Helper()
	if want.PathsExplored != got.PathsExplored {
		t.Fatalf("%s: PathsExplored %d vs %d", label, want.PathsExplored, got.PathsExplored)
	}
	if len(want.Seconds) != len(got.Seconds) {
		t.Fatalf("%s: row count %d vs %d", label, len(want.Seconds), len(got.Seconds))
	}
	for bi := range want.Seconds {
		for cj := range want.Seconds[bi] {
			a, b := want.Seconds[bi][cj], got.Seconds[bi][cj]
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Fatalf("%s: Seconds[%d][%d] = %v vs %v", label, bi, cj, a, b)
			}
			pa, pb := want.Route(bi, cj), got.Route(bi, cj)
			if len(pa.Edges) != len(pb.Edges) {
				t.Fatalf("%s: Routes[%d][%d] hops %d vs %d", label, bi, cj, pa.Hops(), pb.Hops())
			}
			for i := range pa.Edges {
				if pa.Edges[i] != pb.Edges[i] {
					t.Fatalf("%s: Routes[%d][%d] edge %d differs", label, bi, cj, i)
				}
			}
		}
	}
}

// TestComputeRoutesParallelMatchesSerial checks the tentpole's core
// guarantee: the worker pool returns a table identical — response times,
// routes, and enumeration counts — to the serial computation, for both
// strategies, several hop bounds, and several worker counts (including
// "one per CPU").
func TestComputeRoutesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []*graph.Graph{graph.FatTree(4, 1000)}
	for trial := 0; trial < 4; trial++ {
		graphs = append(graphs, graph.RandomConnected(10+rng.Intn(8), 0.3, 1000, rng))
	}
	for gi, g := range graphs {
		graph.RandomizeUtilization(g, 0.1, 0.9, rng)
		s, err := RandomState(g, DefaultScenario(), rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Classify(s, DefaultParams().Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Busy) == 0 {
			c.Busy = []int{0, 1}
			c.Candidates = []int{2, 3}
		}
		for _, strategy := range []PathStrategy{PathEnumerate, PathDP} {
			hopBounds := []int{2, 4, 0}
			if strategy == PathEnumerate {
				// Unbounded enumeration explodes on dense random graphs;
				// the bounded cases cover the enumerate branch.
				hopBounds = []int{2, 3}
			}
			for _, maxHops := range hopBounds {
				p := Params{RateModel: RateUtilized, PathStrategy: strategy, MaxHops: maxHops}
				serial, err := ComputeRoutes(s, c, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8, -1} {
					pp := p
					pp.Parallelism = workers
					par, err := ComputeRoutes(s, c, pp)
					if err != nil {
						t.Fatal(err)
					}
					routeTablesIdentical(t, serial, par, strategy.String())
				}
				_ = gi
			}
		}
	}
}

// TestRouteCostTimesDataMatchesSeconds is the table-consistency property:
// for every finite entry, re-summing the returned route's per-edge costs
// and scaling by the busy node's data volume reproduces the table's
// response time — for both strategies and several hop bounds.
func TestRouteCostTimesDataMatchesSeconds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(8+rng.Intn(10), 0.3, 1000, rng)
		graph.RandomizeUtilization(g, 0.1, 0.9, rng)
		s, err := RandomState(g, DefaultScenario(), rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Classify(s, DefaultParams().Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Busy) == 0 || len(c.Candidates) == 0 {
			continue
		}
		for _, strategy := range []PathStrategy{PathEnumerate, PathDP} {
			hopBounds := []int{1, 3, 0}
			if strategy == PathEnumerate {
				hopBounds = []int{1, 3}
			}
			for _, maxHops := range hopBounds {
				p := Params{RateModel: RateUtilized, PathStrategy: strategy, MaxHops: maxHops, Parallelism: 2}
				rt, err := ComputeRoutes(s, c, p)
				if err != nil {
					t.Fatal(err)
				}
				cost := graph.InverseRateCost(func(e graph.Edge) float64 { return p.RateModel.rate(e) })
				for bi, b := range c.Busy {
					data := s.effectiveDataMb(b)
					for cj := range c.Candidates {
						sec := rt.Seconds[bi][cj]
						if math.IsInf(sec, 1) {
							continue
						}
						route := rt.Route(bi, cj)
						if route.Hops() == 0 && b != c.Candidates[cj] {
							t.Fatalf("finite entry [%d][%d] with empty route", bi, cj)
						}
						if maxHops > 0 && route.Hops() > maxHops {
							t.Fatalf("route [%d][%d] uses %d hops, bound %d", bi, cj, route.Hops(), maxHops)
						}
						want := data * route.Cost(s.G, cost)
						if math.Abs(want-sec) > 1e-9*math.Max(1, math.Abs(sec)) {
							t.Fatalf("trial %d %v maxHops %d [%d][%d]: route cost·data = %v, table %v",
								trial, strategy, maxHops, bi, cj, want, sec)
						}
					}
				}
			}
		}
	}
}

func TestRouteWorkersResolution(t *testing.T) {
	cases := []struct {
		parallelism, rows, want int
	}{
		{0, 10, 1},
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2},
		{16, 1, 1},
	}
	for _, c := range cases {
		p := Params{Parallelism: c.parallelism}
		if got := p.routeWorkers(c.rows); got != c.want {
			t.Errorf("routeWorkers(parallelism=%d, rows=%d) = %d, want %d",
				c.parallelism, c.rows, got, c.want)
		}
	}
	// Negative resolves to the CPU count (at least one worker).
	p := Params{Parallelism: -1}
	if got := p.routeWorkers(1000); got < 1 {
		t.Fatalf("routeWorkers(-1) = %d, want >= 1", got)
	}
}

func TestComputeRoutesRejectsUnknownStrategy(t *testing.T) {
	s, th := lineState()
	c, err := Classify(s, th)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeRoutes(s, c, Params{PathStrategy: PathStrategy(99)}); err == nil {
		t.Fatal("expected error for unknown path strategy")
	}
}
