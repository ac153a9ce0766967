package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// lineState builds a 3-node line busy(0)—cand(1)—cand(2) with simple rates.
func lineState() (*State, Thresholds) {
	g := graph.Line(3, 100)
	g.SetUtilization(0, 0.5) // edge 0-1: Lu = 50 Mbps (utilized model)
	g.SetUtilization(1, 0.5) // edge 1-2: Lu = 50 Mbps
	s := NewState(g)
	s.Util = []float64{90, 20, 20}
	s.DataMb = []float64{100, 0, 0}
	return s, Thresholds{CMax: 80, COMax: 50, XMin: 10}
}

func TestComputeRoutesKnownTimes(t *testing.T) {
	s, th := lineState()
	c, err := Classify(s, th)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ComputeRoutes(s, c, Params{RateModel: RateUtilized, PathStrategy: PathEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	// Busy node 0, data 100 Mb. To node 1: 100/50 = 2 s over one edge.
	// To node 2: 2 + 2 = 4 s over two edges.
	if math.Abs(rt.Seconds[0][0]-2) > 1e-12 {
		t.Fatalf("Trmin(0→1) = %g, want 2", rt.Seconds[0][0])
	}
	if math.Abs(rt.Seconds[0][1]-4) > 1e-12 {
		t.Fatalf("Trmin(0→2) = %g, want 4", rt.Seconds[0][1])
	}
	if rt.Route(0, 1).Hops() != 2 {
		t.Fatalf("route hops = %d, want 2", rt.Route(0, 1).Hops())
	}
	if rt.PathsExplored == 0 {
		t.Fatal("enumeration should report explored paths")
	}
}

func TestComputeRoutesMaxHops(t *testing.T) {
	s, th := lineState()
	c, _ := Classify(s, th)
	rt, err := ComputeRoutes(s, c, Params{RateModel: RateUtilized, PathStrategy: PathEnumerate, MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(rt.Seconds[0][0], 1) {
		t.Fatal("1-hop candidate should be reachable with maxHops=1")
	}
	if !math.IsInf(rt.Seconds[0][1], 1) {
		t.Fatal("2-hop candidate should be unreachable with maxHops=1")
	}
	if got := rt.ReachableCandidates(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("reachable = %v, want [0]", got)
	}
}

func TestComputeRoutesStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultScenario()
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(10, 0.3, 1000, rng)
		s, err := RandomState(g, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Classify(s, cfg.Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxHops := range []int{1, 2, 3, 10} {
			enum, err := ComputeRoutes(s, c, Params{RateModel: RateUtilized, PathStrategy: PathEnumerate, MaxHops: maxHops})
			if err != nil {
				t.Fatal(err)
			}
			dp, err := ComputeRoutes(s, c, Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: maxHops})
			if err != nil {
				t.Fatal(err)
			}
			for bi := range enum.Seconds {
				for cj := range enum.Seconds[bi] {
					a, b := enum.Seconds[bi][cj], dp.Seconds[bi][cj]
					if math.IsInf(a, 1) != math.IsInf(b, 1) {
						t.Fatalf("trial %d hops %d (%d,%d): reachability enum=%v dp=%v",
							trial, maxHops, bi, cj, a, b)
					}
					if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-7*math.Max(1, a) {
						t.Fatalf("trial %d hops %d (%d,%d): enum=%g dp=%g", trial, maxHops, bi, cj, a, b)
					}
				}
			}
		}
	}
}

func TestSolveNoBusyNodes(t *testing.T) {
	g := graph.Ring(4, 100)
	s := NewState(g)
	for i := range s.Util {
		s.Util[i] = 30
	}
	res, err := Solve(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || len(res.Assignments) != 0 {
		t.Fatalf("idle network should be trivially optimal, got %v with %d assignments",
			res.Status, len(res.Assignments))
	}
}

func TestSolveSimpleLinePlacement(t *testing.T) {
	s, th := lineState()
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Excess Cs_0 = 10; nearest candidate (node 1, 2 s) has Cd = 30 ≥ 10,
	// so everything lands there: β = 10 · 2 = 20.
	if math.Abs(res.Objective-20) > 1e-9 {
		t.Fatalf("objective = %g, want 20", res.Objective)
	}
	if len(res.Assignments) != 1 || res.Assignments[0].Candidate != 1 {
		t.Fatalf("assignments = %+v, want single placement on node 1", res.Assignments)
	}
	if err := VerifyResult(s, th, res); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSplitsAcrossCandidates(t *testing.T) {
	// Nearest candidate too small → flexible offloading splits the load
	// (one busy node → multiple destinations, Section IV-A objective).
	g := graph.Line(3, 100)
	g.SetUtilization(0, 0.5)
	g.SetUtilization(1, 0.5)
	s := NewState(g)
	s.Util = []float64{95, 45, 20}
	s.DataMb = []float64{100, 0, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Cs=15, Cd1=5, Cd2=30 → 5 to node 1 (2 s), 10 to node 2 (4 s): β=50.
	if math.Abs(res.Objective-50) > 1e-9 {
		t.Fatalf("objective = %g, want 50", res.Objective)
	}
	if len(res.Assignments) != 2 {
		t.Fatalf("want split across 2 candidates, got %+v", res.Assignments)
	}
	if err := VerifyResult(s, th, res); err != nil {
		t.Fatal(err)
	}
}

func TestSolveManyBusyOneCandidate(t *testing.T) {
	// Multiple busy nodes → single destination (the other flexible
	// offloading direction).
	g := graph.Star(3, 100) // center 0, leaves 1, 2
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	s := NewState(g)
	s.Util = []float64{20, 90, 85}
	s.DataMb = []float64{0, 50, 50}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if got := res.TotalOffloaded(); math.Abs(got-15) > 1e-9 {
		t.Fatalf("total offloaded = %g, want 15 (10+5)", got)
	}
	for _, a := range res.Assignments {
		if a.Candidate != 0 {
			t.Fatalf("assignment to %d, want center 0", a.Candidate)
		}
	}
}

func TestSolveInfeasibleNoCapacity(t *testing.T) {
	g := graph.Line(2, 100)
	g.SetUtilization(0, 0.5)
	s := NewState(g)
	s.Util = []float64{95, 49}
	s.DataMb = []float64{10, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	// Cs = 15 > Cd = 1 → infeasible.
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestSolveInfeasibleUnreachable(t *testing.T) {
	// Capacity exists but not within the hop bound.
	g := graph.Line(3, 100)
	g.SetUtilization(0, 0.5)
	g.SetUtilization(1, 0.5)
	s := NewState(g)
	s.Util = []float64{95, 60, 10} // middle node neutral, far node candidate
	s.DataMb = []float64{10, 0, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	p.MaxHops = 1
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (candidate 2 hops away, bound 1)", res.Status)
	}
	p.MaxHops = 2
	res, err = Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal with maxHops=2", res.Status)
	}
}

func TestSolveFig4Example(t *testing.T) {
	// The paper's illustrative network (Fig. 4): one busy node S1, two
	// offload candidates S2 and S6, multiple controllable routes. We
	// check the solver prefers the minimum-response-time destination.
	g := graph.New(7)          // S1..S7 = 0..6
	e1 := g.AddEdge(0, 2, 100) // S1-S3
	e2 := g.AddEdge(2, 1, 100) // S3-S2
	g.AddEdge(2, 3, 100)       // S3-S4
	g.AddEdge(3, 1, 100)       // S4-S2
	g.AddEdge(1, 4, 100)       // S2-S5
	g.AddEdge(4, 5, 100)       // S5-S6
	g.AddEdge(2, 6, 100)       // S3-S7
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5) // Lu = 50 everywhere
	}
	_ = e1
	_ = e2
	s := NewState(g)
	s.Util = []float64{90, 20, 60, 60, 60, 30, 60} // S1 busy; S2, S6 candidates
	s.DataMb = []float64{50, 0, 0, 0, 0, 0, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Cs = 10. S2 is 2 hops (2 s), S6 is 4 hops (4 s); S2 has Cd = 30.
	// All 10 should go to S2 via S1-S3-S2 for β = 10·2 = 20.
	if len(res.Assignments) != 1 {
		t.Fatalf("assignments = %+v, want 1", res.Assignments)
	}
	a := res.Assignments[0]
	if a.Candidate != 1 || math.Abs(a.Amount-10) > 1e-9 {
		t.Fatalf("assignment = %+v, want 10 pts to S2 (node 1)", a)
	}
	if a.Route.Hops() != 2 {
		t.Fatalf("route hops = %d, want 2 (S1-S3-S2)", a.Route.Hops())
	}
	if err := VerifyResult(s, th, res); err != nil {
		t.Fatal(err)
	}
}

func TestSolversAgreeOnRandomScenarios(t *testing.T) {
	// Transport, simplex, and ILP must agree (ILP only on integral
	// instances) — the property that substitutes for the missing Gurobi.
	rng := rand.New(rand.NewSource(101))
	cfg := DefaultScenario()
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomConnected(8+rng.Intn(8), 0.25, 1000, rng)
		s, err := RandomState(g, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Integral utilizations so Cs/Cd are integral and the ILP's
		// rounding is a no-op.
		for i := range s.Util {
			s.Util[i] = math.Round(s.Util[i])
		}
		p := DefaultParams()
		p.PathStrategy = PathDP
		results := make(map[SolverKind]*Result)
		for _, kind := range []SolverKind{SolverTransport, SolverSimplex, SolverILP} {
			p.Solver = kind
			res, err := Solve(s, p)
			if err != nil {
				t.Fatalf("trial %d solver %v: %v", trial, kind, err)
			}
			results[kind] = res
			if res.Status == StatusOptimal {
				if err := VerifyResult(s, p.Thresholds, res); err != nil {
					t.Fatalf("trial %d solver %v: %v", trial, kind, err)
				}
			}
		}
		tr, sx, il := results[SolverTransport], results[SolverSimplex], results[SolverILP]
		if tr.Status != sx.Status {
			t.Fatalf("trial %d: transport %v vs simplex %v", trial, tr.Status, sx.Status)
		}
		if tr.Status != StatusOptimal {
			continue
		}
		if math.Abs(tr.Objective-sx.Objective) > 1e-5*math.Max(1, tr.Objective) {
			t.Fatalf("trial %d: transport β=%g vs simplex β=%g", trial, tr.Objective, sx.Objective)
		}
		if il.Status == StatusOptimal && il.Objective < tr.Objective-1e-6 {
			t.Fatalf("trial %d: ILP β=%g beats LP relaxation β=%g", trial, il.Objective, tr.Objective)
		}
	}
}

func TestSolveObjectiveMonotoneInMaxHops(t *testing.T) {
	// Growing the route set can only improve (or keep) the optimum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(9, 0.3, 1000, rng)
		s, err := RandomState(g, DefaultScenario(), rng)
		if err != nil {
			return false
		}
		p := DefaultParams()
		p.PathStrategy = PathDP
		prev := math.Inf(1)
		prevFeasible := false
		for _, hops := range []int{1, 2, 3, 9} {
			p.MaxHops = hops
			res, err := Solve(s, p)
			if err != nil {
				return false
			}
			feasible := res.Status == StatusOptimal
			if prevFeasible && !feasible {
				return false // feasibility can't be lost by adding routes
			}
			if feasible {
				if prevFeasible && res.Objective > prev+1e-6 {
					return false
				}
				prev = res.Objective
				prevFeasible = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRateModels(t *testing.T) {
	// Under RateAvailable a saturated direct link forces the detour.
	g := graph.New(3)
	direct := g.AddEdge(0, 1, 100)
	g.AddEdge(0, 2, 100)
	g.AddEdge(2, 1, 100)
	g.SetUtilization(direct, 0.99)
	g.SetUtilization(1, 0.5)
	g.SetUtilization(2, 0.5)
	s := NewState(g)
	s.Util = []float64{90, 20, 60}
	s.DataMb = []float64{50, 0, 0}
	p := DefaultParams()
	p.RateModel = RateAvailable
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || len(res.Assignments) != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Assignments[0].Route.Hops() != 2 {
		t.Fatalf("available-rate model should detour around the saturated link, got %d hops",
			res.Assignments[0].Route.Hops())
	}
	// Paper-literal model: the saturated link carries the most data-plane
	// traffic, hence the highest Lu and the fastest (cheapest) route.
	p.RateModel = RateUtilized
	res, err = Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0].Route.Hops() != 1 {
		t.Fatalf("utilized-rate model should use the direct link, got %d hops",
			res.Assignments[0].Route.Hops())
	}
}

func TestVerifyResultCatchesTampering(t *testing.T) {
	s, th := lineState()
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	res.Assignments[0].Amount += 5 // violates Eq. 3b conservation
	if err := VerifyResult(s, th, res); err == nil {
		t.Fatal("tampered result passed verification")
	}
}

func TestSolveDurationsPopulated(t *testing.T) {
	s, th := lineState()
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteDuration < 0 || res.SolveDuration < 0 {
		t.Fatal("durations should be nonnegative")
	}
	if res.Routes == nil || res.Classification == nil {
		t.Fatal("result should carry routes and classification")
	}
}

func TestShadowPricesIdentifyBottleneck(t *testing.T) {
	// Busy node 0 must split: nearby candidate 1 is tight (all capacity
	// used) and the overflow rides two hops to candidate 2. Extra capacity
	// at node 1 would save (Trmin(0,2) − Trmin(0,1)) per point — its
	// shadow price. Node 2 has slack, so its price is zero.
	g := graph.Line(3, 100)
	g.SetUtilization(0, 0.5)
	g.SetUtilization(1, 0.5)
	s := NewState(g)
	s.Util = []float64{95, 45, 20}
	s.DataMb = []float64{100, 0, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.ShadowPrices == nil {
		t.Fatal("transport solver should report shadow prices")
	}
	// Trmin(0,1) = 2 s, Trmin(0,2) = 4 s → price(1) = 2, price(2) = 0.
	if math.Abs(res.ShadowPrices[1]-2) > 1e-9 {
		t.Fatalf("shadow price of tight candidate = %g, want 2", res.ShadowPrices[1])
	}
	if res.ShadowPrices[2] != 0 {
		t.Fatalf("shadow price of slack candidate = %g, want 0", res.ShadowPrices[2])
	}
	bn := res.Bottlenecks()
	if len(bn) != 1 || bn[0].Node != 1 {
		t.Fatalf("bottlenecks = %+v, want node 1 only", bn)
	}
}

func TestAlternateRoutes(t *testing.T) {
	s, th := lineState()
	p := DefaultParams()
	p.Thresholds = th
	res, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	routes := AlternateRoutes(s, res.Assignments[0], p.RateModel, 3)
	// A line has exactly one route between adjacent nodes.
	if len(routes) != 1 {
		t.Fatalf("routes = %d, want 1 on a line", len(routes))
	}
	if math.Abs(routes[0].ResponseTimeSec-res.Assignments[0].ResponseTimeSec) > 1e-9 {
		t.Fatalf("primary route time %g != assignment's %g",
			routes[0].ResponseTimeSec, res.Assignments[0].ResponseTimeSec)
	}

	// On the fat-tree, inter-pod assignments have equal-cost backups.
	g := graph.FatTree(4, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	s2 := NewState(g)
	s2.Util[0] = 90
	s2.Util[4] = 20
	for i := range s2.Util {
		if i != 0 && i != 4 {
			s2.Util[i] = 60
		}
	}
	s2.DataMb[0] = 50
	res2, err := Solve(s2, p)
	if err != nil || res2.Status != StatusOptimal {
		t.Fatalf("fat-tree solve: %v %v", err, res2.Status)
	}
	alts := AlternateRoutes(s2, res2.Assignments[0], p.RateModel, 4)
	if len(alts) != 4 {
		t.Fatalf("alternates = %d, want 4 (one per core switch)", len(alts))
	}
	for i := 1; i < len(alts); i++ {
		if alts[i].ResponseTimeSec < alts[i-1].ResponseTimeSec-1e-12 {
			t.Fatal("alternates not in nondecreasing response time")
		}
	}
	// The best alternate matches the solver's chosen response time.
	if math.Abs(alts[0].ResponseTimeSec-res2.Assignments[0].ResponseTimeSec) > 1e-9 {
		t.Fatalf("best alternate %g != solver's %g",
			alts[0].ResponseTimeSec, res2.Assignments[0].ResponseTimeSec)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		SolverTransport.String():  "transport",
		SolverSimplex.String():    "simplex",
		SolverILP.String():        "ilp",
		PathEnumerate.String():    "enumerate",
		PathDP.String():           "dp",
		RateUtilized.String():     "utilized",
		RateAvailable.String():    "available",
		StatusOptimal.String():    "optimal",
		StatusInfeasible.String(): "infeasible",
		HeuristicGreedy.String():  "greedy",
		HeuristicLP.String():      "lp",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestShadowPricesAgreeAcrossSolvers(t *testing.T) {
	// The tight-candidate line scenario has a unique, non-degenerate dual:
	// the transport potentials and the simplex duals must agree.
	g := graph.Line(3, 100)
	g.SetUtilization(0, 0.5)
	g.SetUtilization(1, 0.5)
	s := NewState(g)
	s.Util = []float64{95, 45, 20}
	s.DataMb = []float64{100, 0, 0}
	th := Thresholds{CMax: 80, COMax: 50, XMin: 10}
	p := DefaultParams()
	p.Thresholds = th

	p.Solver = SolverTransport
	tr, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Solver = SolverSimplex
	sx, err := Solve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range []int{1, 2} {
		if math.Abs(tr.ShadowPrices[cand]-sx.ShadowPrices[cand]) > 1e-6 {
			t.Fatalf("candidate %d: transport price %g vs simplex price %g",
				cand, tr.ShadowPrices[cand], sx.ShadowPrices[cand])
		}
	}
	if math.Abs(sx.ShadowPrices[1]-2) > 1e-7 {
		t.Fatalf("simplex price = %g, want 2", sx.ShadowPrices[1])
	}
}
