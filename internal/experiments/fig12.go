package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig12Point is one scale's heuristic runtime.
type Fig12Point struct {
	K, Nodes, Edges int
	MeanTime        time.Duration
	MaxTime         time.Duration
	MeanBusy        float64
	MeanPlacedPct   float64 // share of required offload the heuristic placed
	// MeanRoutesPriced is the mean number of one-hop routes the heuristic
	// priced: the deterministic counterpart of MeanTime.
	MeanRoutesPriced float64
	Iterations       int
}

// Fig12Result reproduces Figure 12: heuristic execution time versus
// network size, out to the 64-k/5120-node fat-tree (paper: 124 s on their
// Gurobi-based pipeline; ours is a native Go greedy fill, so the absolute
// scale differs while the growth shape holds).
type Fig12Result struct {
	Points []Fig12Point
}

// Fig12HeuristicScale measures the heuristic across fat-tree scales.
func Fig12HeuristicScale(cfg Config) (*Fig12Result, error) {
	sc := core.DefaultScenario()
	params := core.DefaultParams()
	params.Thresholds = sc.Thresholds
	params.Parallelism = cfg.Parallelism
	res := &Fig12Result{}
	for _, k := range []int{4, 8, 16, 32, 64} {
		iters := cfg.Iterations
		if k >= 32 {
			iters = cfg.LargeIterations
		}
		// At least one iteration: times.Max() on an empty summary is NaN,
		// which would render a nonsense MaxTime below.
		if iters < 1 {
			iters = 1
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var times metrics.Summary
		var busy metrics.Summary
		var placed, routes metrics.Summary
		for i := 0; i < iters; i++ {
			s, err := scenario(k, sc, rng)
			if err != nil {
				return nil, err
			}
			h, err := core.SolveHeuristicClassified(s, mustClassify(s, params.Thresholds), params, core.HeuristicGreedy)
			if err != nil {
				return nil, err
			}
			times.Add(h.Duration.Seconds())
			busy.Add(float64(len(h.Classification.Busy)))
			routes.Add(float64(h.RoutesPriced))
			if total := h.Classification.TotalCs(); total > 0 {
				placed.Add(h.TotalPlaced() / total * 100)
			}
		}
		nodes, edges := graphSizes(k)
		res.Points = append(res.Points, Fig12Point{
			K: k, Nodes: nodes, Edges: edges,
			MeanTime:         time.Duration(times.Mean() * float64(time.Second)),
			MaxTime:          time.Duration(times.Max() * float64(time.Second)),
			MeanBusy:         busy.Mean(),
			MeanPlacedPct:    placed.Mean(),
			MeanRoutesPriced: routes.Mean(),
			Iterations:       iters,
		})
	}
	return res, nil
}

func mustClassify(s *core.State, t core.Thresholds) *core.Classification {
	c, err := core.Classify(s, t)
	if err != nil {
		panic(err) // scenarios are generated with validated thresholds
	}
	return c
}

// Table renders the scaling series.
func (r *Fig12Result) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d-k", p.K),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Edges),
			fdur(p.MeanTime), fdur(p.MaxTime),
			f1(p.MeanBusy), f1(p.MeanPlacedPct) + "%",
		})
	}
	return "Fig 12 — heuristic execution time vs network size\n" +
		table([]string{"fat-tree", "nodes", "edges", "mean time", "max time", "busy nodes", "placed"}, rows)
}
