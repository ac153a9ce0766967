package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/lp"
)

// HeuristicMode selects how each busy node's restricted one-hop problem is
// minimized.
type HeuristicMode int

const (
	// HeuristicGreedy fills the cheapest one-hop candidates first — the
	// closed-form optimum of the single-source restricted problem.
	HeuristicGreedy HeuristicMode = iota
	// HeuristicLP solves each busy node's restricted problem with the LP
	// engine, the literal reading of Algorithm 1 line 8 ("Minimize β for
	// defined heuristic set"). Same placements, higher constant cost;
	// compared by BenchmarkAblationHeuristicGreedyVsLP.
	HeuristicLP
)

func (m HeuristicMode) String() string {
	if m == HeuristicLP {
		return "lp"
	}
	return "greedy"
}

// HeuristicResult is the output of SolveHeuristic.
type HeuristicResult struct {
	// Assignments lists the placed offloads (one-hop routes only).
	Assignments []Assignment
	// PerBusy records, for every busy node, its excess Cs_i, the amount
	// placed, and the amount Cse_i that failed to place (Eq. 4 numerator).
	PerBusy []HeuristicBusyOutcome
	// Objective is β over the placed assignments.
	Objective float64
	// HFRPercent is the Heuristic Failure Rate (Eq. 4): the share of
	// required offload capacity that could not be placed one hop away.
	HFRPercent float64
	// Classification echoes the role split used.
	Classification *Classification
	Duration       time.Duration
	// RoutesPriced counts the one-hop routes priced (one per candidate
	// neighbour with capacity left); LPSolves and Pivots count the
	// per-node sub-LPs HeuristicLP ran and their simplex pivots (both 0
	// under HeuristicGreedy). Unlike Duration they are deterministic, so
	// tests compare work with them.
	RoutesPriced, LPSolves, Pivots int
}

// HeuristicBusyOutcome is the per-busy-node breakdown.
type HeuristicBusyOutcome struct {
	Node           int
	Cs             float64
	Placed, Failed float64
}

// TotalPlaced sums placed capacity across busy nodes.
func (r *HeuristicResult) TotalPlaced() float64 {
	sum := 0.0
	for _, b := range r.PerBusy {
		sum += b.Placed
	}
	return sum
}

// TotalFailed sums Cse_i across busy nodes.
func (r *HeuristicResult) TotalFailed() float64 {
	sum := 0.0
	for _, b := range r.PerBusy {
		sum += b.Failed
	}
	return sum
}

// FullSuccess reports whether every busy node was fully offloaded.
func (r *HeuristicResult) FullSuccess() bool { return r.TotalFailed() <= 1e-9 }

// NoSuccess reports whether nothing could be offloaded while offload was
// required.
func (r *HeuristicResult) NoSuccess() bool {
	return r.TotalPlaced() <= 1e-9 && r.TotalFailed() > 1e-9
}

// SolveHeuristic runs Algorithm 1: for every busy node, restrict the
// candidate set to offload-capable direct neighbours below COmax
// (max-hop = 1) and place the excess at minimum cost. Candidate spare
// capacity is shared across busy nodes and consumed in node order.
// The rate model of params selects Lu; PathStrategy and MaxHops are
// ignored (the heuristic is one-hop by definition).
//
// Ordering is pinned, not incidental: busy nodes are processed in
// ascending node-id order (the classification's Busy order), each
// consuming shared candidate capacity before the next, and within one
// busy node the one-hop options fill cheapest-first with exact cost ties
// broken toward the lower candidate node id. On tie-free instances the
// outcome (HFR, total placed, objective) is therefore invariant under
// relabeling the non-busy nodes — TestHeuristicInvariantUnderRelabeling
// pins that property. The busy processing order itself is load-bearing
// whenever capacity is scarce (an earlier busy node can drain a shared
// neighbour); that dependence is inherent to Algorithm 1's sequential
// structure, so the order is fixed to ascending ids rather than hidden.
func SolveHeuristic(s *State, p Params, mode HeuristicMode) (*HeuristicResult, error) {
	c, err := Classify(s, p.Thresholds)
	if err != nil {
		return nil, err
	}
	return SolveHeuristicClassified(s, c, p, mode)
}

// SolveHeuristicClassified is SolveHeuristic with a precomputed
// classification.
func SolveHeuristicClassified(s *State, c *Classification, p Params, mode HeuristicMode) (*HeuristicResult, error) {
	start := time.Now()
	res := &HeuristicResult{Classification: c}
	remaining := append([]float64(nil), c.Cd...)
	candIdx := make(map[int]int, len(c.Candidates))
	for j, n := range c.Candidates {
		candIdx[n] = j
	}

	for bi, b := range c.Busy {
		out := HeuristicBusyOutcome{Node: b, Cs: c.Cs[bi]}

		// One-hop candidate set with the best (least-cost) direct edge.
		type option struct {
			cj   int
			cost float64 // response time D_i / Lu for the direct edge
			edge graph.EdgeID
		}
		var opts []option
		for _, nb := range s.G.Neighbors(b) {
			cj, ok := candIdx[nb]
			if !ok || remaining[cj] <= 1e-12 {
				continue
			}
			e, ok := s.G.EdgeBetween(b, nb)
			if !ok {
				continue
			}
			// Among parallel edges EdgeBetween returns the least utilized;
			// scan all parallels for the cheapest under the rate model.
			best := math.Inf(1)
			bestEdge := e.ID
			for _, id := range s.G.Incident(b) {
				pe := s.G.Edge(id)
				if pe.Other(b) != nb {
					continue
				}
				r := p.RateModel.rate(pe)
				if r <= 0 {
					continue
				}
				if t := s.effectiveDataMb(b) / r; t < best {
					best = t
					bestEdge = id
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			opts = append(opts, option{cj: cj, cost: best, edge: bestEdge})
		}
		res.RoutesPriced += len(opts)
		sort.Slice(opts, func(a, b int) bool {
			if opts[a].cost != opts[b].cost {
				return opts[a].cost < opts[b].cost
			}
			return opts[a].cj < opts[b].cj
		})

		need := c.Cs[bi]
		caps := make([]float64, len(opts))
		costs := make([]float64, len(opts))
		for k, o := range opts {
			// Convert the destination's remaining capacity into origin
			// points it can absorb (capability coefficients).
			dest := c.Candidates[o.cj]
			caps[k] = remaining[o.cj] / s.HostCost(b, dest, 1)
			costs[k] = o.cost
		}
		var fills []float64
		switch mode {
		case HeuristicGreedy:
			fills = greedyFill(need, caps)
		case HeuristicLP:
			var sol *lp.Solution
			var err error
			fills, sol, err = lpFill(need, caps, costs)
			if err != nil {
				return nil, err
			}
			if sol != nil {
				res.LPSolves++
				res.Pivots += sol.Pivots
			}
		default:
			return nil, fmt.Errorf("core: unknown heuristic mode %d", mode)
		}

		for k, amt := range fills {
			if amt <= 1e-12 {
				continue
			}
			o := opts[k]
			remaining[o.cj] -= s.HostCost(b, c.Candidates[o.cj], amt)
			out.Placed += amt
			res.Objective += amt * o.cost
			res.Assignments = append(res.Assignments, Assignment{
				Busy:            b,
				Candidate:       c.Candidates[o.cj],
				Amount:          amt,
				ResponseTimeSec: o.cost,
				Route: graph.Path{
					Src: b, Dst: c.Candidates[o.cj],
					Edges: []graph.EdgeID{o.edge},
				},
			})
		}
		out.Failed = out.Cs - out.Placed
		if out.Failed < 1e-12 {
			out.Failed = 0
		}
		res.PerBusy = append(res.PerBusy, out)
	}

	if total := c.TotalCs(); total > 0 {
		res.HFRPercent = res.TotalFailed() / total * 100
	}
	res.Duration = time.Since(start)
	return res, nil
}

// greedyFill pours need into caps in order (already cost-sorted),
// returning per-option amounts. Single-source min-cost with sorted costs
// is exactly this waterfill.
func greedyFill(need float64, caps []float64) []float64 {
	fills := make([]float64, len(caps))
	for i := range caps {
		if need <= 1e-12 {
			break
		}
		amt := math.Min(need, caps[i])
		fills[i] = amt
		need -= amt
	}
	return fills
}

// lpFill solves the same single-source problem with the LP engine. When
// the excess cannot be fully placed the equality constraint is infeasible;
// Algorithm 1 still places as much as it can, so we fall back to
// maximizing placed amount with cost tie-break — equivalent to the greedy
// waterfill, which we then use directly. The LP's solution is returned
// alongside the fills, nil when no LP ran.
func lpFill(need float64, caps, costs []float64) ([]float64, *lp.Solution, error) {
	if len(caps) == 0 {
		return nil, nil, nil
	}
	model := lp.NewModel(lp.Minimize)
	vars := make([]lp.VarID, len(caps))
	var terms []lp.Term
	for i := range caps {
		vars[i] = model.AddVar(fmt.Sprintf("x%d", i), 0, caps[i], costs[i])
		terms = append(terms, lp.Term{Var: vars[i], Coeff: 1})
	}
	totalCap := 0.0
	for _, c := range caps {
		totalCap += c
	}
	if totalCap < need-1e-12 {
		// Partial failure: the LP equality would be infeasible. The
		// cheapest way to place totalCap is to fill everything.
		return append([]float64(nil), caps...), nil, nil
	}
	model.AddConstraint("place", terms, lp.EQ, need)
	sol, err := model.Solve()
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, nil, fmt.Errorf("core: heuristic sub-LP unexpectedly %v", sol.Status)
	}
	fills := make([]float64, len(caps))
	for i, v := range vars {
		fills[i] = sol.Value(v)
	}
	return fills, sol, nil
}
