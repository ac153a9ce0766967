package lp

import (
	"errors"
	"math"
	"testing"
)

// TestIterationLimitStatusNotOptimal pins the contract that exhausting the
// pivot budget never reports StatusOptimal: a call site that drops the
// error must still see a non-optimal status. The tableau is built by hand
// (maxPivots is not reachable through the public API) as
// minimize -x subject to x + s = 1, which needs exactly one pivot.
func TestIterationLimitStatusNotOptimal(t *testing.T) {
	tab := &tableau{
		T:         [][]float64{{1, 1}},
		rhs:       []float64{1},
		basis:     []int{1},
		live:      []bool{true},
		nStruct:   1,
		artStart:  2,
		total:     2,
		maxPivots: 0,
	}
	status, err := tab.optimize([]float64{-1, 0}, 2)
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("optimize with zero pivot budget: err = %v, want ErrIterationLimit", err)
	}
	if status == StatusOptimal {
		t.Fatalf("pivot-capped optimize returned StatusOptimal alongside %v", err)
	}
	if status != StatusIterationLimit {
		t.Fatalf("status = %v, want %v", status, StatusIterationLimit)
	}
}

// TestTransportForbiddenLaneTinySupply: a supply small enough that its
// whole flow sits under the absolute roundoff cutoff used to be zeroed
// before the forbidden-lane check ran, reporting an unroutable instance as
// optimal with a silently truncated placement. The detection threshold must
// be relative to the source's supply.
func TestTransportForbiddenLaneTinySupply(t *testing.T) {
	p := TransportProblem{
		Supply: []float64{1e-10},
		Demand: []float64{1},
		Cost:   [][]float64{{math.Inf(1)}},
	}
	sol, err := SolveTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible: the only lane is forbidden", sol.Status)
	}
}

// TestTransportNearOverflowCostSpread: with a finite cost near the float64
// overflow boundary, the classical Big-M construction
// (maxCost+1)·(m+n)·1e3 overflows to +Inf and poisons the MODI potentials;
// the solve still stumbled to the right flows here, but the exported duals
// came back ±Inf — garbage shadow prices for the Manager. Costs must be
// normalized before the Big-M is applied and the duals scaled back.
func TestTransportNearOverflowCostSpread(t *testing.T) {
	p := TransportProblem{
		Supply: []float64{1, 1},
		Demand: []float64{1, 1},
		Cost: [][]float64{
			{0, 1e306},
			{1, math.Inf(1)},
		},
	}
	sol, err := SolveTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// Source 1 cannot use its forbidden lane, so it takes sink 0 and source
	// 0 pays the big (but finite) cost to sink 1.
	want := 1e306 + 1
	if !approx(sol.Objective, want, 1e-6*want) {
		t.Fatalf("objective = %g, want %g", sol.Objective, want)
	}
	if !approx(sol.Flow[0][1], 1, 1e-9) || !approx(sol.Flow[1][0], 1, 1e-9) {
		t.Fatalf("flows = %v, want x01 = x10 = 1", sol.Flow)
	}
	for i, u := range sol.DualSupply {
		if math.IsInf(u, 0) || math.IsNaN(u) {
			t.Fatalf("DualSupply[%d] = %g: Big-M overflow destroyed dual precision", i, u)
		}
	}
	for j, v := range sol.DualDemand {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("DualDemand[%d] = %g: Big-M overflow destroyed dual precision", j, v)
		}
	}
}

// TestTransportForbiddenLaneResidueTolerated: the relative forbidden-flow
// threshold must still tolerate genuine roundoff — a feasible instance
// whose optimal basis merely touches a forbidden cell at zero flow stays
// optimal.
func TestTransportForbiddenLaneResidueTolerated(t *testing.T) {
	p := TransportProblem{
		Supply: []float64{3, 2},
		Demand: []float64{4, 4},
		Cost: [][]float64{
			{1, 2},
			{math.Inf(1), 1},
		},
	}
	sol, err := SolveTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !approx(sol.Objective, 3*1+2*1, 1e-9) {
		t.Fatalf("objective = %g, want 5", sol.Objective)
	}
}

// TestTransportSubEpsExcessNotTruncated: total supply may exceed total
// capacity by a roundoff allowance, but an absolute 1e-9 allowance
// swallowed a whole 1e-10 supply. Here source 0 cannot ship at all (its
// only lane is forbidden) and the single sink is filled by source 1; the
// excess of 1e-10 used to pass as roundoff, leaving source 0 silently
// unshipped and the solve "optimal". The allowance must shrink with the
// smallest supply, as the forbidden-flow audit's does.
func TestTransportSubEpsExcessNotTruncated(t *testing.T) {
	p := TransportProblem{
		Supply: []float64{1e-10, 4.8},
		Demand: []float64{4.8},
		Cost:   [][]float64{{math.Inf(1)}, {6}},
	}
	sol, err := SolveTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible: source 0 has no open lane", sol.Status)
	}
}

// TestTransportSubEpsSinkClosedInfeasible: a 1e-10 source whose only
// open sink has no capacity left can ship only over a forbidden lane. A
// tree re-flow once put exactly -1e-10 on the dummy's cell at the closed
// sink, treated it as roundoff, and reported the stale tree optimal. The
// solve must call the instance infeasible.
func TestTransportSubEpsSinkClosedInfeasible(t *testing.T) {
	p := TransportProblem{
		Supply: []float64{1e-10},
		Demand: []float64{0, 0, 0, 4.8},
		Cost:   [][]float64{{6, 6, 6, math.Inf(1)}},
	}
	sol, err := SolveTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible: source 0 has no open lane with capacity", sol.Status)
	}
}
