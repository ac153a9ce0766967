package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig11Point is one network scale's heuristic/optimization comparison.
type Fig11Point struct {
	K     int
	Nodes int
	// MeanHFRPct is the heuristic failure rate (Figure 11a).
	MeanHFRPct float64
	// MeanOptTime is the optimization wall time at the paper's
	// recommended max-hop for the scale (Figure 11b); zero when the scale
	// was heuristic-only.
	MeanOptTime time.Duration
	// MeanHeurTime is the heuristic wall time (Figure 12).
	MeanHeurTime time.Duration
	// MeanHeurRoutes is the mean number of one-hop routes the heuristic
	// priced and MeanOptPaths the mean number of simple paths the
	// optimization enumerated (zero when it did not run): the
	// deterministic counterpart of the two times.
	MeanHeurRoutes, MeanOptPaths float64
	OptRan                       bool
}

// Fig11Result reproduces Figure 11 (and, via the heuristic-time column,
// Figure 12): HFR falls with scale (paper: 47.92% → 11.04%, ≈ a −0.5
// power law) while optimization time explodes (0.2 s → 153+ s); the
// heuristic stays tractable out to 5120 nodes (paper: 124 s; ours is
// faster — shape, not absolute).
type Fig11Result struct {
	Points []Fig11Point
	// PowerLawExponent is the fitted HFR ~ nodes^b exponent (paper ≈ −0.5).
	PowerLawExponent float64
	PowerLawOK       bool
}

// recommendedMaxHop mirrors the paper's per-scale recommendations.
func recommendedMaxHop(k int) int {
	switch {
	case k <= 4:
		return 10
	case k <= 8:
		return 7
	default:
		return 4
	}
}

// Fig11Scalability sweeps fat-tree scales. Optimization runs where the
// paper ran it (up to 320 nodes); the heuristic runs everywhere, up to
// the 64-k/5120-node point of Figure 12.
func Fig11Scalability(cfg Config) (*Fig11Result, error) {
	res := &Fig11Result{}
	sc := core.DefaultScenario()
	// The paper's HFR experiment stresses one-hop capacity: busier
	// networks with scarcer candidates make one-hop failure visible.
	sc.PBusy, sc.PCandidate = 0.35, 0.4

	for _, k := range []int{4, 8, 16, 32, 64} {
		iters := cfg.Iterations
		if k >= 16 || (cfg.Fast && k >= 8) {
			iters = max(cfg.LargeIterations, 1)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var hfr, optT, heurT, heurRoutes, optPaths metrics.Summary
		optRan := k <= 16
		params := core.DefaultParams()
		params.Thresholds = sc.Thresholds
		params.PathStrategy = core.PathEnumerate
		params.MaxHops = recommendedMaxHop(k)
		params.Parallelism = cfg.Parallelism
		for i := 0; i < iters; i++ {
			s, err := scenario(k, sc, rng)
			if err != nil {
				return nil, err
			}
			h, err := core.SolveHeuristic(s, params, core.HeuristicGreedy)
			if err != nil {
				return nil, err
			}
			if len(h.Classification.Busy) == 0 {
				continue
			}
			hfr.Add(h.HFRPercent)
			heurT.Add(h.Duration.Seconds())
			heurRoutes.Add(float64(h.RoutesPriced))
			if optRan {
				r, elapsed, err := solveElapsed(s, params)
				if err != nil {
					return nil, err
				}
				optT.Add(elapsed.Seconds())
				optPaths.Add(float64(r.Routes.PathsExplored))
			}
		}
		nodes, _ := graphSizes(k)
		res.Points = append(res.Points, Fig11Point{
			K: k, Nodes: nodes,
			MeanHFRPct:     hfr.Mean(),
			MeanOptTime:    time.Duration(optT.Mean() * float64(time.Second)),
			MeanHeurTime:   time.Duration(heurT.Mean() * float64(time.Second)),
			MeanHeurRoutes: heurRoutes.Mean(),
			MeanOptPaths:   optPaths.Mean(),
			OptRan:         optRan,
		})
	}

	// Fit HFR ~ nodes^b across scales with positive HFR.
	var xs, ys []float64
	for _, p := range res.Points {
		if p.MeanHFRPct > 0 {
			xs = append(xs, float64(p.Nodes))
			ys = append(ys, p.MeanHFRPct)
		}
	}
	if len(xs) >= 2 {
		if _, b, err := metrics.PowerLawFit(xs, ys); err == nil {
			res.PowerLawExponent = b
			res.PowerLawOK = true
		}
	}
	return res, nil
}

// Table renders both panels plus the Figure 12 column.
func (r *Fig11Result) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		opt := "-"
		if p.OptRan {
			opt = fdur(p.MeanOptTime)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d-k", p.K), fmt.Sprintf("%d", p.Nodes),
			f1(p.MeanHFRPct) + "%", opt, fdur(p.MeanHeurTime),
		})
	}
	out := "Fig 11/12 — scalability: HFR (11a), optimization time (11b), heuristic time (12)\n" +
		table([]string{"fat-tree", "nodes", "HFR", "opt time", "heuristic time"}, rows)
	if r.PowerLawOK {
		out += fmt.Sprintf("HFR power-law exponent vs nodes: %.2f (paper: ≈ -0.5)\n", r.PowerLawExponent)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
