package verify

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// checkTol is the absolute/relative slack allowed when recomputing sums
// that the solvers build in a different summation order.
const checkTol = 1e-6

// CheckResult audits a placement result against the Eq. 3 invariants it
// claims to satisfy, using only the state, the classification and route
// table embedded in the result, and arithmetic independent of the solver:
//
//   - every assignment references a classified busy/candidate pair, carries
//     a positive amount, and (for SolverILP) an integral one;
//   - each assignment's response time and route match the route table row
//     for its pair, the route connects the pair's endpoints, and no
//     assignment uses an unreachable (+Inf) lane;
//   - flow conservation (3b): each busy node's amounts sum to its Cs_i
//     (the ceil'd supply for SolverILP);
//   - capacity (3a): each candidate's host-cost-weighted inflow stays
//     within Cd_j (the floor'd capacity for SolverILP);
//   - the reported objective equals Σ amount·T_rmin recomputed from the
//     assignments.
//
// Infeasible results and results with no busy nodes are vacuously valid.
// The returned error describes the first violated invariant.
func CheckResult(s *core.State, res *core.Result, solver core.SolverKind) error {
	if res == nil {
		return fmt.Errorf("verify: nil result")
	}
	if res.Status != core.StatusOptimal {
		return nil
	}
	c := res.Classification
	if c == nil {
		return fmt.Errorf("verify: optimal result without classification")
	}
	if len(c.Busy) == 0 {
		if len(res.Assignments) != 0 {
			return fmt.Errorf("verify: %d assignments with no busy nodes", len(res.Assignments))
		}
		return nil
	}
	rt := res.Routes
	if rt == nil {
		return fmt.Errorf("verify: optimal result without route table")
	}

	busyIdx := make(map[int]int, len(c.Busy))
	for bi, node := range c.Busy {
		busyIdx[node] = bi
	}
	candIdx := make(map[int]int, len(c.Candidates))
	for cj, node := range c.Candidates {
		candIdx[node] = cj
	}

	placed := make([]float64, len(c.Busy))
	used := make([]float64, len(c.Candidates))
	objective := 0.0
	for k, a := range res.Assignments {
		bi, ok := busyIdx[a.Busy]
		if !ok {
			return fmt.Errorf("verify: assignment %d offloads from non-busy node %d", k, a.Busy)
		}
		cj, ok := candIdx[a.Candidate]
		if !ok {
			return fmt.Errorf("verify: assignment %d targets non-candidate node %d", k, a.Candidate)
		}
		if a.Amount <= 0 {
			return fmt.Errorf("verify: assignment %d has non-positive amount %g", k, a.Amount)
		}
		if solver == core.SolverILP && math.Abs(a.Amount-math.Round(a.Amount)) > checkTol {
			return fmt.Errorf("verify: ILP assignment %d has fractional amount %g", k, a.Amount)
		}
		want := rt.Seconds[bi][cj]
		if math.IsInf(want, 1) {
			return fmt.Errorf("verify: assignment %d (%d→%d) uses an unreachable lane", k, a.Busy, a.Candidate)
		}
		if !close(a.ResponseTimeSec, want) {
			return fmt.Errorf("verify: assignment %d (%d→%d) response time %g != route table %g",
				k, a.Busy, a.Candidate, a.ResponseTimeSec, want)
		}
		if want > 0 || len(rt.Route(bi, cj).Edges) > 0 {
			r := a.Route
			if r.Src != a.Busy || r.Dst != a.Candidate {
				return fmt.Errorf("verify: assignment %d route runs %d→%d, want %d→%d",
					k, r.Src, r.Dst, a.Busy, a.Candidate)
			}
		}
		placed[bi] += a.Amount
		used[cj] += s.HostCost(a.Busy, a.Candidate, a.Amount)
		objective += a.Amount * want
	}

	for bi, node := range c.Busy {
		want := c.Cs[bi]
		if solver == core.SolverILP {
			want = math.Ceil(c.Cs[bi] - 1e-9)
		}
		if !close(placed[bi], want) {
			return fmt.Errorf("verify: busy node %d placed %g of its %g excess (3b violated)",
				node, placed[bi], want)
		}
	}
	for cj, node := range c.Candidates {
		cap := c.Cd[cj]
		if solver == core.SolverILP {
			cap = math.Floor(c.Cd[cj] + 1e-9)
		}
		if used[cj] > cap+checkTol*math.Max(1, cap) {
			return fmt.Errorf("verify: candidate %d absorbs %g over its %g capacity (3a violated)",
				node, used[cj], cap)
		}
	}
	if !close(objective, res.Objective) {
		return fmt.Errorf("verify: reported objective %g != recomputed %g", res.Objective, objective)
	}
	return nil
}

// close reports a ≈ b within checkTol, absolutely or relatively.
func close(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= checkTol || diff <= checkTol*math.Max(math.Abs(a), math.Abs(b))
}
