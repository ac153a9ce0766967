package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/lp"
)

// SolverKind selects the engine for the min-cost offload problem (Eq. 3).
type SolverKind int

const (
	// SolverTransport solves the placement as a transportation problem
	// with the specialized network method — the default fast exact path.
	SolverTransport SolverKind = iota
	// SolverSimplex solves the same LP with the general two-phase simplex;
	// used as an independent cross-check and ablation baseline.
	SolverSimplex
	// SolverILP solves the integral variant (whole percentage points) with
	// branch-and-bound, the reading under which the paper's "ILP" name is
	// literal. Supplies are rounded up and capacities down, conservatively.
	SolverILP
)

func (k SolverKind) String() string {
	switch k {
	case SolverSimplex:
		return "simplex"
	case SolverILP:
		return "ilp"
	default:
		return "transport"
	}
}

// Params configures a placement solve.
type Params struct {
	Thresholds Thresholds
	// MaxHops bounds the controllable-route length; <= 0 means unbounded.
	MaxHops int
	// RateModel selects the Lu definition (paper-literal by default).
	RateModel RateModel
	// PathStrategy selects exhaustive enumeration (paper-literal) or the
	// polynomial DP.
	PathStrategy PathStrategy
	// Solver selects the optimization engine.
	Solver SolverKind
	// Parallelism bounds the worker pool that fans the route computation
	// out across busy nodes: 0 or 1 = serial, N > 1 = up to N workers,
	// < 0 = one worker per available CPU. The route table is identical
	// regardless of the setting.
	Parallelism int
	// CacheEpsilon is the RouteCache's relative link-rate drift tolerance:
	// a cached row is revalidated (reused) while every edge's Lu has
	// drifted by at most this fraction of the cache's per-edge snapshot.
	// A relative rate drift of at most ε moves each 1/Lu cost, and so every
	// path sum whatever its hop count, by a factor of at most 1/(1−ε); a
	// row computed up to ε away from the snapshot and a current rate up to
	// ε away on the other side bound the cached response times' relative
	// error by (1 + ε/(1−ε))² − 1 ≈ 2ε. 0 keeps revalidation exact: any
	// rate change evicts exactly the rows it can affect.
	CacheEpsilon float64
	// Measured optionally blends active RTT/loss measurements into the
	// rate model (DESIGN.md §15): every edge rate is multiplied by the
	// overlay's per-edge factor before entering route costs. Nil keeps
	// the static model.
	Measured *graph.MeasuredCosts
}

// EffectiveRate is the measured-aware Lu: the static rate model's rate
// for e, discounted by the measurement overlay's factor when one is
// configured. This is the single rate definition behind every route-cost
// computation (ComputeRoutes, RouteCache, replica picking), so measured
// congestion and static utilization always agree on which edges are
// expensive.
func (p Params) EffectiveRate(e graph.Edge) float64 {
	r := p.RateModel.rate(e)
	if p.Measured != nil {
		r *= p.Measured.RateFactor(e.ID)
	}
	return r
}

// CostVector prices every edge of g for one route round: the InverseRate
// of its EffectiveRate, indexed by EdgeID. The measurement overlay is read
// once, so every route of the round sees the same measurements even while
// probes keep reporting.
func (p Params) CostVector(g *graph.Graph) []float64 {
	w, _ := p.edgeRates(g, nil)
	for i, r := range w {
		w[i] = graph.InverseRate(r)
	}
	return w
}

// edgeRates resolves EffectiveRate for every edge of g into dst (grown as
// needed) from one snapshot of the measurement overlay, and returns the
// overlay version the snapshot reflects (0 without an overlay).
func (p Params) edgeRates(g *graph.Graph, dst []float64) ([]float64, uint64) {
	ne := g.NumEdges()
	var mver uint64
	if p.Measured != nil {
		dst, mver = p.Measured.Factors(dst, ne)
	} else {
		if cap(dst) < ne {
			dst = make([]float64, ne)
		}
		dst = dst[:ne]
	}
	for i := range dst {
		r := p.RateModel.rate(g.Edge(graph.EdgeID(i)))
		if p.Measured != nil {
			r *= dst[i]
		}
		dst[i] = r
	}
	return dst, mver
}

// DefaultParams returns the configuration used by the paper's evaluation:
// Δ_io = 2 thresholds, unbounded hops, paper-literal rate model,
// exhaustive route enumeration, and the transportation solver.
func DefaultParams() Params {
	return Params{
		Thresholds: Thresholds{CMax: 80, COMax: 50, XMin: 10},
	}
}

// Status is the outcome of a placement solve.
type Status int

const (
	// StatusOptimal means every busy node's excess was placed at minimum
	// total response-time cost.
	StatusOptimal Status = iota
	// StatusInfeasible means the excess cannot be fully placed: spare
	// capacity or reachability is insufficient (the event Figure 7 counts).
	StatusInfeasible
)

func (s Status) String() string {
	if s == StatusInfeasible {
		return "infeasible"
	}
	return "optimal"
}

// Assignment is one x_ij > 0 of the solution: offload Amount percentage
// points from Busy to Candidate along Route.
type Assignment struct {
	Busy, Candidate int
	// Amount is the offloaded capacity in percentage points.
	Amount float64
	// ResponseTimeSec is T_rmin(i,j) for the busy node's data volume.
	ResponseTimeSec float64
	// Route is the minimum-response-time controllable route.
	Route graph.Path
}

// Result is the output of Solve.
type Result struct {
	Status Status
	// Objective is β = Σ x_ij·T_rmin(i,j) (seconds·percentage-points).
	Objective float64
	// Assignments lists the nonzero x_ij.
	Assignments []Assignment
	// Classification echoes the role split the solve used.
	Classification *Classification
	// Routes is the response-time table the objective was built from.
	Routes *RouteTable
	// RouteDuration and SolveDuration split the wall time between
	// controllable-route computation and optimization.
	RouteDuration, SolveDuration time.Duration
	// Pivots counts simplex/MODI pivot steps; Nodes counts B&B nodes.
	Pivots, Nodes int
	// ShadowPrices maps each candidate node to the marginal objective
	// improvement per extra percentage point of spare capacity there —
	// the Manager's bottleneck signal for where adding compute (a DPU, a
	// server) would pay off most. Populated by the transportation solver
	// (MODI potentials) and the simplex (constraint duals); nil for the
	// ILP mode, whose value function has no gradients.
	ShadowPrices map[int]float64
}

// SolveMode names how the optimization ran. Every transportation solve
// starts cold, so it is always "cold"; the name survives for callers that
// still tally solve modes.
func (r *Result) SolveMode() string { return "cold" }

// Bottlenecks returns the candidates with positive shadow price, sorted
// by descending price: the spare-capacity bottlenecks of this placement.
func (r *Result) Bottlenecks() []BottleneckEntry {
	var out []BottleneckEntry
	for node, price := range r.ShadowPrices {
		if price > 1e-9 {
			out = append(out, BottleneckEntry{Node: node, ShadowPrice: price})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ShadowPrice != out[j].ShadowPrice {
			return out[i].ShadowPrice > out[j].ShadowPrice
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// BottleneckEntry is one capacity bottleneck.
type BottleneckEntry struct {
	Node        int
	ShadowPrice float64
}

// TotalOffloaded sums the assignment amounts.
func (r *Result) TotalOffloaded() float64 {
	sum := 0.0
	for _, a := range r.Assignments {
		sum += a.Amount
	}
	return sum
}

// Solve runs the full DUST placement pipeline on a state snapshot:
// classify roles, compute minimum response times over controllable routes,
// and solve the min-cost offload problem (Eq. 3). A state with no busy
// nodes yields an empty optimal result.
func Solve(s *State, p Params) (*Result, error) {
	c, err := Classify(s, p.Thresholds)
	if err != nil {
		return nil, err
	}
	return SolveClassified(s, c, p)
}

// SolveClassified is Solve with a precomputed classification, for callers
// (the Manager, the experiment harness) that already track roles.
func SolveClassified(s *State, c *Classification, p Params) (*Result, error) {
	if len(c.Busy) == 0 {
		return &Result{Status: StatusOptimal, Classification: c}, nil
	}

	t0 := time.Now()
	rt, err := ComputeRoutes(s, c, p)
	if err != nil {
		return nil, err
	}
	routeDur := time.Since(t0)

	t1 := time.Now()
	res, err := solveWithRoutes(s, c, rt, p, new(lp.Transport))
	if err != nil {
		return nil, err
	}
	res.RouteDuration = routeDur
	res.SolveDuration = time.Since(t1)
	return res, nil
}

// solveWithRoutes is SolveClassified with a precomputed route table. A
// transportation solve runs on the workspace w, which the caller must not
// share with a concurrent solve.
func solveWithRoutes(s *State, c *Classification, rt *RouteTable, p Params, w *lp.Transport) (*Result, error) {
	res := &Result{Status: StatusOptimal, Classification: c, Routes: rt}
	if len(c.Busy) == 0 {
		return res, nil
	}
	hetero := s.Heterogeneous()
	if len(c.Candidates) == 0 || (!hetero && c.TotalCs() > c.TotalCd()+1e-9) {
		res.Status = StatusInfeasible
		return res, nil
	}
	solver := p.Solver
	if hetero && solver == SolverTransport {
		// Capability coefficients put per-cell weights on the capacity
		// constraints, which the pure transportation method cannot carry;
		// the general simplex solves the generalized problem exactly.
		solver = SolverSimplex
	}
	var err error
	switch solver {
	case SolverTransport:
		err = solveTransport(c, rt, res, w)
	case SolverSimplex:
		err = solveLP(s, c, rt, res, false)
	case SolverILP:
		err = solveLP(s, c, rt, res, true)
	default:
		err = fmt.Errorf("core: unknown solver kind %d", solver)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func solveTransport(c *Classification, rt *RouteTable, res *Result, w *lp.Transport) error {
	sol, err := w.Solve(transportProblem(c, rt))
	if err != nil {
		return err
	}
	return extractTransport(c, rt, res, sol)
}

// transportProblem assembles the Eq. 3 transportation instance from a
// classification and its route table.
func transportProblem(c *Classification, rt *RouteTable) lp.TransportProblem {
	return lp.TransportProblem{
		Supply: c.Cs,
		Demand: c.Cd,
		Cost:   rt.Seconds,
	}
}

// extractTransport translates a transportation solution into the solve
// result: status, objective, shadow prices, and nonzero assignments. The
// result keeps nothing of sol, which belongs to the solver's workspace.
func extractTransport(c *Classification, rt *RouteTable, res *Result, sol *lp.TransportSolution) error {
	res.Pivots = sol.Iterations
	if sol.Status != lp.StatusOptimal {
		res.Status = StatusInfeasible
		return nil
	}
	res.Objective = sol.Objective
	res.ShadowPrices = make(map[int]float64, len(c.Candidates))
	for cj, cand := range c.Candidates {
		price := -sol.DualDemand[cj]
		if price < 0 {
			price = 0
		}
		res.ShadowPrices[cand] = price
	}
	placed := 0
	for _, row := range sol.Flow {
		for _, f := range row {
			if f > 1e-9 {
				placed++
			}
		}
	}
	res.Assignments = make([]Assignment, 0, placed)
	for bi, row := range sol.Flow {
		for cj, f := range row {
			if f > 1e-9 {
				res.Assignments = append(res.Assignments, Assignment{
					Busy:            c.Busy[bi],
					Candidate:       c.Candidates[cj],
					Amount:          f,
					ResponseTimeSec: rt.Seconds[bi][cj],
					Route:           rt.Route(bi, cj),
				})
			}
		}
	}
	return nil
}

// varKey addresses the decision variable x_ij by busy row and candidate
// column of the classification.
type varKey struct{ bi, cj int }

// buildPlacementModel assembles the Eq. 3 model over the route table: one
// variable per reachable (busy, candidate) lane, supply equalities (3b)
// and capacity inequalities (3a). capCon maps each candidate column to its
// capacity constraint's index for dual extraction. ok=false means some
// busy node has positive excess and no reachable candidate — trivially
// infeasible, no model needed. The ILP variant (integral=true) rounds
// supplies up and capacities down, conservatively.
func buildPlacementModel(s *State, c *Classification, rt *RouteTable, integral bool) (model *lp.Model, vars map[varKey]lp.VarID, capCon map[int]int, ok bool) {
	// The solver-facing supplies and capacities are computed once so the
	// variable bounds and the constraint rows use identical figures.
	supplies := make([]float64, len(c.Busy))
	for bi := range c.Busy {
		supplies[bi] = c.Cs[bi]
		if integral {
			supplies[bi] = math.Ceil(supplies[bi] - 1e-9)
		}
	}
	capacities := make([]float64, len(c.Candidates))
	for cj := range c.Candidates {
		capacities[cj] = c.Cd[cj]
		if integral {
			capacities[cj] = math.Floor(capacities[cj] + 1e-9)
		}
	}

	model = lp.NewModel(lp.Minimize)
	vars = make(map[varKey]lp.VarID)
	for bi := range c.Busy {
		for cj := range c.Candidates {
			sec := rt.Seconds[bi][cj]
			if math.IsInf(sec, 1) {
				continue // no route within the hop bound: x_ij fixed at 0
			}
			// Eq. 3 boxes every x_ij into min(Cs_i, effective Cd_j): it can
			// neither exceed its source's excess (3b) nor, scaled by the
			// persona host cost, its destination's spare capacity (3a).
			// The declared bound keeps the simplex tableau well-scaled —
			// +Inf columns would otherwise survive until the constraint
			// rows prune them. The continuous path declares only the Cs_i
			// half: the Cd_j half IS the capacity row (restricted to one
			// variable), and duplicating a row splits its dual, corrupting
			// the exported shadow prices whenever a single busy node
			// saturates a candidate. The ILP path has no duals and takes
			// the full min, which tightens branch-and-bound boxes
			// (DESIGN.md §11 maps all this onto constraints 3c–3e).
			name := fmt.Sprintf("x_%d_%d", c.Busy[bi], c.Candidates[cj])
			if integral {
				coeff := s.HostCost(c.Busy[bi], c.Candidates[cj], 1)
				ub := supplies[bi]
				if byCap := capacities[cj] / coeff; byCap < ub {
					ub = byCap
				}
				vars[varKey{bi, cj}] = model.AddIntVar(name, 0, math.Floor(ub+1e-9), sec)
			} else {
				vars[varKey{bi, cj}] = model.AddVar(name, 0, supplies[bi], sec)
			}
		}
	}
	// Eq. 3b: each busy node fully offloads its excess.
	for bi := range c.Busy {
		var terms []lp.Term
		for cj := range c.Candidates {
			if v, found := vars[varKey{bi, cj}]; found {
				terms = append(terms, lp.Term{Var: v, Coeff: 1})
			}
		}
		if terms == nil {
			if supplies[bi] > 1e-9 {
				return nil, nil, nil, false
			}
			continue
		}
		model.AddConstraint(fmt.Sprintf("supply_%d", c.Busy[bi]), terms, lp.EQ, supplies[bi])
	}
	// Eq. 3a: candidate spare capacity. With heterogeneous personas, one
	// origin point consumes cap_i/cap_j destination points.
	capCon = make(map[int]int) // candidate column -> constraint index
	for cj := range c.Candidates {
		var terms []lp.Term
		for bi := range c.Busy {
			if v, found := vars[varKey{bi, cj}]; found {
				coeff := s.HostCost(c.Busy[bi], c.Candidates[cj], 1)
				terms = append(terms, lp.Term{Var: v, Coeff: coeff})
			}
		}
		if terms == nil {
			continue
		}
		capCon[cj] = model.NumConstraints()
		model.AddConstraint(fmt.Sprintf("cap_%d", c.Candidates[cj]), terms, lp.LE, capacities[cj])
	}
	return model, vars, capCon, true
}

func solveLP(s *State, c *Classification, rt *RouteTable, res *Result, integral bool) error {
	model, vars, capCon, ok := buildPlacementModel(s, c, rt, integral)
	if !ok {
		res.Status = StatusInfeasible
		return nil
	}

	sol, err := model.Solve()
	if err != nil {
		return err
	}
	res.Pivots = sol.Pivots
	res.Nodes = sol.Nodes
	if sol.Status != lp.StatusOptimal {
		res.Status = StatusInfeasible
		return nil
	}
	res.Objective = sol.Objective
	if sol.Duals != nil {
		// Shadow price of candidate j's capacity: −dual of its LE row
		// (the dual is dβ/dRHS ≤ 0 for a minimization).
		res.ShadowPrices = make(map[int]float64, len(capCon))
		for cj, k := range capCon {
			price := -sol.Dual(k)
			if price < 0 {
				price = 0
			}
			res.ShadowPrices[c.Candidates[cj]] = price
		}
	}
	for bi := range c.Busy {
		for cj := range c.Candidates {
			v, found := vars[varKey{bi, cj}]
			if !found {
				continue
			}
			if f := sol.Value(v); f > 1e-9 {
				res.Assignments = append(res.Assignments, Assignment{
					Busy:            c.Busy[bi],
					Candidate:       c.Candidates[cj],
					Amount:          f,
					ResponseTimeSec: rt.Seconds[bi][cj],
					Route:           rt.Route(bi, cj),
				})
			}
		}
	}
	return nil
}
