package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/verify"
)

// fleet160 builds the end-to-end benchmark's fixture (bench/, and
// newTickBench in internal/cluster) as a bare state: a 160-node random
// topology with link utilization 30–90 %, every third node busy at 85–95 %
// and the rest candidates at 15–35 %, 20 Mb of monitoring data each, all
// drawn from one seeded stream in that order.
func fleet160(seed int64) (*core.State, core.Params) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(160, 0.05, 1000, rng)
	graph.RandomizeUtilization(g, 0.3, 0.9, rng)
	s := core.NewState(g)
	for i := range s.Util {
		if i%3 == 0 {
			s.Util[i] = 85 + 10*rng.Float64()
		} else {
			s.Util[i] = 15 + 20*rng.Float64()
		}
		s.DataMb[i] = 20
	}
	p := core.DefaultParams()
	p.Thresholds = core.Thresholds{CMax: 80, COMax: 50, XMin: 1}
	p.PathStrategy = core.PathDP
	return s, p
}

// TestColdTransportPivotsFleet160 pins the work of a cold transportation
// solve on the benchmark's fleet160 shape (seed 17, 54 busy × 106
// candidates): a role flip lands on exactly this solve, so its pivot count
// is what a role-churn tick pays. The least-cost start ships the real
// sources before the balancing dummy, which leaves MODI a pivot or two;
// the start that let the dummy's zero-cost lanes take the cheapest sinks
// first needed 79. The count is deterministic, so this is an exact work
// budget rather than a timing assertion. The objective must match the
// independent min-cost-flow reference.
func TestColdTransportPivotsFleet160(t *testing.T) {
	const maxPivots = 5
	s, p := fleet160(17)
	c, err := core.Classify(s, p.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Busy) != 54 || len(c.Candidates) != 106 {
		t.Fatalf("fleet160 shape %d×%d, want 54×106", len(c.Busy), len(c.Candidates))
	}
	sol, err := lp.SolveTransport(lp.TransportProblem{Supply: c.Cs, Demand: c.Cd, Cost: rt.Seconds})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.Iterations > maxPivots {
		t.Fatalf("cold solve took %d pivots, budget %d", sol.Iterations, maxPivots)
	}
	feasible, ref := verify.MinCostFlow(c.Cs, c.Cd, rt.Seconds)
	if !feasible {
		t.Fatal("reference reports the instance infeasible")
	}
	if math.Abs(sol.Objective-ref) > 1e-9*math.Max(1, math.Abs(ref)) {
		t.Fatalf("objective %.15g, min-cost-flow reference %.15g", sol.Objective, ref)
	}
	t.Logf("fleet160 cold solve: %d pivots, objective %.6f", sol.Iterations, sol.Objective)
}

// BenchmarkColdTransportFleet160 times the solve TestColdTransportPivotsFleet160
// counts: one cold lp.SolveTransport on the fleet160 instance.
func BenchmarkColdTransportFleet160(b *testing.B) {
	prob := fleet160Problem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.SolveTransport(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReusedTransportFleet160 is BenchmarkColdTransportFleet160 on
// one lp.Transport kept across solves — the Planner's path, which reuses
// the tableau and the solution arrays. It should report 0 allocs/op.
func BenchmarkReusedTransportFleet160(b *testing.B) {
	prob := fleet160Problem(b)
	var w lp.Transport
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyRoundAllocBudgetFleet160 pins what a steady placement round
// allocates on fleet160. A repeat solve on one lp.Transport allocates
// nothing. A repeat Planner round, with every route row cached and
// unchanged, allocates only what it returns: the Result, its route table
// headers, the assignments and the shadow-price map.
func TestSteadyRoundAllocBudgetFleet160(t *testing.T) {
	const maxRoundAllocs = 10
	prob := fleet160Problem(t)
	var w lp.Transport
	if _, err := w.Solve(prob); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.Solve(prob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("repeat transport solve: %.0f allocations, want 0", allocs)
	}

	s, p := fleet160(17)
	c, err := core.Classify(s, p.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPlanner(p)
	if _, err := pl.SolveClassified(s, c); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := pl.SolveClassified(s, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxRoundAllocs {
		t.Errorf("steady planner round: %.0f allocations, budget %d", allocs, maxRoundAllocs)
	}
	t.Logf("steady planner round: %.0f allocations", allocs)
}

// fleet160Problem is the fleet160 transportation instance.
func fleet160Problem(tb testing.TB) lp.TransportProblem {
	tb.Helper()
	s, p := fleet160(17)
	c, err := core.Classify(s, p.Thresholds)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := core.ComputeRoutes(s, c, p)
	if err != nil {
		tb.Fatal(err)
	}
	return lp.TransportProblem{Supply: c.Cs, Demand: c.Cd, Cost: rt.Seconds}
}
