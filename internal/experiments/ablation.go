package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// AblationResult compares the design alternatives DESIGN.md calls out:
// transportation fast path vs general simplex, exhaustive enumeration vs
// the hop-bounded DP, greedy vs LP heuristic fill, and zoned vs global
// solving.
type AblationResult struct {
	K          int
	Iterations int

	TransportTime, SimplexTime time.Duration
	ObjectiveAgreement         bool
	EnumerateTime, DPTime      time.Duration
	GreedyTime, HeurLPTime     time.Duration
	// Deterministic work behind the times above, as means per scenario:
	// EnumeratePaths counts the simple paths enumeration priced and DPPaths
	// the routes the DP returned (one per reachable busy/candidate pair);
	// GreedyLPSolves and HeurLPSolves count per-node sub-LPs, HeurLPPivots
	// their simplex pivots.
	EnumeratePaths, DPPaths      float64
	GreedyLPSolves, HeurLPSolves float64
	HeurLPPivots                 float64
	ZonedTime, GlobalTime        time.Duration
	ZonedObjPenaltyPct           float64 // mean objective inflation of zoning
	ZonedInfeasiblePct           float64
	// Pod-aware zoning (fat-tree structure) vs blind BFS zoning.
	PodZonedTime          time.Duration
	PodZonedObjPenaltyPct float64
	PodZonedInfeasiblePct float64
}

// RunAblations measures all four comparisons on 8-k scenarios.
func RunAblations(cfg Config) (*AblationResult, error) {
	const k = 8
	iters := max(cfg.Iterations/4, 3)
	sc := core.DefaultScenario()
	base := core.DefaultParams()
	base.Thresholds = sc.Thresholds
	base.MaxHops = recommendedMaxHop(k)
	base.Parallelism = cfg.Parallelism

	res := &AblationResult{K: k, Iterations: iters, ObjectiveAgreement: true}
	var tTrans, tSimp, tEnum, tDP, tGreedy, tHeurLP, tZoned, tGlobal, tPodZoned metrics.Summary
	var zonedPenalty, podZonedPenalty metrics.Summary
	var enumPaths, dpPaths, greedySolves, lpSolves, lpPivots metrics.Summary
	zonedInfeasible, podZonedInfeasible, zonedRuns := 0, 0, 0

	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < iters; i++ {
		s, err := scenario(k, sc, rng)
		if err != nil {
			return nil, err
		}

		// Solver ablation (DP routes so only the solver differs).
		p := base
		p.PathStrategy = core.PathDP
		p.Solver = core.SolverTransport
		rTrans, dTrans, err := solveElapsed(s, p)
		if err != nil {
			return nil, err
		}
		p.Solver = core.SolverSimplex
		rSimp, dSimp, err := solveElapsed(s, p)
		if err != nil {
			return nil, err
		}
		tTrans.Add(dTrans.Seconds())
		tSimp.Add(dSimp.Seconds())
		if rTrans.Status != rSimp.Status {
			res.ObjectiveAgreement = false
		} else if rTrans.Status == core.StatusOptimal &&
			math.Abs(rTrans.Objective-rSimp.Objective) > 1e-5*math.Max(1, rTrans.Objective) {
			res.ObjectiveAgreement = false
		}

		// Path-strategy ablation (transport solver so only routes differ).
		p = base
		p.Solver = core.SolverTransport
		p.PathStrategy = core.PathEnumerate
		rEnum, dEnum, err := solveElapsed(s, p)
		if err != nil {
			return nil, err
		}
		p.PathStrategy = core.PathDP
		rDP, dDP, err := solveElapsed(s, p)
		if err != nil {
			return nil, err
		}
		tEnum.Add(dEnum.Seconds())
		tDP.Add(dDP.Seconds())
		if rEnum.Routes != nil {
			enumPaths.Add(float64(rEnum.Routes.PathsExplored))
			dpPaths.Add(float64(reachablePairs(rDP.Routes)))
		}

		// Heuristic-mode ablation.
		hg, err := core.SolveHeuristic(s, base, core.HeuristicGreedy)
		if err != nil {
			return nil, err
		}
		hl, err := core.SolveHeuristic(s, base, core.HeuristicLP)
		if err != nil {
			return nil, err
		}
		tGreedy.Add(hg.Duration.Seconds())
		tHeurLP.Add(hl.Duration.Seconds())
		greedySolves.Add(float64(hg.LPSolves))
		lpSolves.Add(float64(hl.LPSolves))
		lpPivots.Add(float64(hl.Pivots))

		// Zoning ablation (paper Section V-B: zones of <= 80 nodes).
		p = base
		p.PathStrategy = core.PathDP
		global, dGlobal, err := solveElapsed(s, p)
		if err != nil {
			return nil, err
		}
		zoned, err := core.SolveZoned(s, p, 20)
		if err != nil {
			return nil, err
		}
		tGlobal.Add(dGlobal.Seconds())
		tZoned.Add(zoned.Duration.Seconds())
		zonedRuns++
		if zoned.Status != core.StatusOptimal {
			zonedInfeasible++
		} else if global.Status == core.StatusOptimal && global.Objective > 0 {
			zonedPenalty.Add((zoned.Objective - global.Objective) / global.Objective * 100)
		}

		podZones, err := core.PartitionZonesByPod(s)
		if err != nil {
			return nil, err
		}
		podZoned, err := core.SolveZonedWithPartition(s, p, podZones)
		if err != nil {
			return nil, err
		}
		tPodZoned.Add(podZoned.Duration.Seconds())
		if podZoned.Status != core.StatusOptimal {
			podZonedInfeasible++
		} else if global.Status == core.StatusOptimal && global.Objective > 0 {
			podZonedPenalty.Add((podZoned.Objective - global.Objective) / global.Objective * 100)
		}
	}

	res.TransportTime = secs(tTrans.Mean())
	res.SimplexTime = secs(tSimp.Mean())
	res.EnumerateTime = secs(tEnum.Mean())
	res.DPTime = secs(tDP.Mean())
	res.GreedyTime = secs(tGreedy.Mean())
	res.HeurLPTime = secs(tHeurLP.Mean())
	res.EnumeratePaths, res.DPPaths = enumPaths.Mean(), dpPaths.Mean()
	res.GreedyLPSolves, res.HeurLPSolves = greedySolves.Mean(), lpSolves.Mean()
	res.HeurLPPivots = lpPivots.Mean()
	res.ZonedTime = secs(tZoned.Mean())
	res.GlobalTime = secs(tGlobal.Mean())
	res.ZonedObjPenaltyPct = zonedPenalty.Mean()
	res.PodZonedTime = secs(tPodZoned.Mean())
	res.PodZonedObjPenaltyPct = podZonedPenalty.Mean()
	if zonedRuns > 0 {
		res.ZonedInfeasiblePct = float64(zonedInfeasible) / float64(zonedRuns) * 100
		res.PodZonedInfeasiblePct = float64(podZonedInfeasible) / float64(zonedRuns) * 100
	}
	return res, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// reachablePairs counts the route table's finite entries: the routes a
// DP table holds, one per busy/candidate pair within the hop bound.
func reachablePairs(rt *core.RouteTable) int {
	n := 0
	for _, row := range rt.Seconds {
		for _, sec := range row {
			if !math.IsInf(sec, 1) {
				n++
			}
		}
	}
	return n
}

// Table renders the comparisons.
func (r *AblationResult) Table() string {
	rows := [][]string{
		{"solver: transport fast path", fdur(r.TransportTime), fmt.Sprintf("vs simplex %s, objectives agree: %v", fdur(r.SimplexTime), r.ObjectiveAgreement)},
		{"routes: hop-bounded DP", fdur(r.DPTime), fmt.Sprintf("vs exhaustive enumeration %s (routes priced %.0f vs %.0f)", fdur(r.EnumerateTime), r.DPPaths, r.EnumeratePaths)},
		{"heuristic: greedy fill", fdur(r.GreedyTime), fmt.Sprintf("vs per-node LP %s (%.1f LPs, %.1f pivots)", fdur(r.HeurLPTime), r.HeurLPSolves, r.HeurLPPivots)},
		{"zoning (20-node BFS zones)", fdur(r.ZonedTime), fmt.Sprintf("vs global %s, obj +%.1f%%, infeasible %.0f%%", fdur(r.GlobalTime), r.ZonedObjPenaltyPct, r.ZonedInfeasiblePct)},
		{"zoning (fat-tree pods)", fdur(r.PodZonedTime), fmt.Sprintf("vs global %s, obj +%.1f%%, infeasible %.0f%%", fdur(r.GlobalTime), r.PodZonedObjPenaltyPct, r.PodZonedInfeasiblePct)},
	}
	return fmt.Sprintf("Ablations (%d-k fat-tree, %d iters)\n", r.K, r.Iterations) +
		table([]string{"design choice", "mean time", "comparison"}, rows)
}
