package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// RateModel selects how the per-link rate Lu is derived from an edge's
// physical capacity and dynamic utilization.
type RateModel int

const (
	// RateUtilized is the paper-literal definition (Section IV-B): Lu is
	// the physical bandwidth multiplied by the dynamic utilization rate.
	RateUtilized RateModel = iota
	// RateAvailable uses the remaining headroom Cap·(1−Utilization); the
	// physically conservative reading under which offload traffic rides
	// only spare bandwidth. Exposed for ablation; the figures use the
	// paper-literal model.
	RateAvailable
)

func (m RateModel) String() string {
	if m == RateAvailable {
		return "available"
	}
	return "utilized"
}

// rate returns Lu for edge e under the model, in Mbps.
func (m RateModel) rate(e graph.Edge) float64 {
	if m == RateAvailable {
		return e.AvailableMbps()
	}
	return e.UtilizedMbps()
}

// PathStrategy selects how minimum response times over controllable
// routes are computed.
type PathStrategy int

const (
	// PathEnumerate exhaustively enumerates every simple path within the
	// max-hop bound, exactly as the paper's formulation defines the route
	// set p = {r_1, …, r_n}. Its cost explodes with max-hop — the effect
	// Figures 8 and 10 measure.
	PathEnumerate PathStrategy = iota
	// PathDP computes the same hop-bounded minimum with a Bellman–Ford
	// layer DP in polynomial time. Used by the ablation bench and the
	// production-oriented solver configuration.
	PathDP
)

func (p PathStrategy) String() string {
	if p == PathDP {
		return "dp"
	}
	return "enumerate"
}

// RouteTable holds, for one state snapshot, the minimum response time
// T_rmin(i,j) (Eq. 2) and the realizing route for every (busy, candidate)
// pair, plus enumeration statistics.
type RouteTable struct {
	// Busy and Candidates echo the classification's node lists.
	Busy       []int
	Candidates []int
	// Seconds[bi][cj] is T_rmin between Busy[bi] and Candidates[cj]; +Inf
	// when no route exists within the hop bound.
	Seconds [][]float64
	// PathsExplored counts enumerated simple paths (PathEnumerate only).
	PathsExplored int
	// rows[bi] holds busy row bi's minimum-response-time routes to every
	// node. Rows are shared with the route cache and never written after
	// assembly, so a table costs no per-cell path copies.
	rows []routeRow
}

// routeRow is one busy row's routes: the shortest-path tree under
// unbounded hops with PathDP, explicit paths indexed by node ID otherwise.
type routeRow struct {
	tree  *graph.Tree
	paths []graph.Path
}

// Route returns the minimum-response-time path between Busy[bi] and
// Candidates[cj], or the zero Path when Seconds[bi][cj] is +Inf.
func (rt *RouteTable) Route(bi, cj int) graph.Path {
	if math.IsInf(rt.Seconds[bi][cj], 1) {
		return graph.Path{}
	}
	if t := rt.rows[bi].tree; t != nil {
		return t.Path(rt.Candidates[cj])
	}
	return rt.rows[bi].paths[rt.Candidates[cj]]
}

// ComputeRoutes builds the route table for the classified state.
// The per-edge transfer time for busy node i's data is D_i/Lu_e (Eq. 1);
// summing over a route and minimizing over the route set gives Eq. 2.
// p.MaxHops <= 0 means unbounded.
//
// Every edge is priced once, into one cost vector (Params.CostVector) that
// all rows share. Both strategies are embarrassingly parallel per busy
// source, so the rows are fanned out across a bounded worker pool sized by
// p.Parallelism; each worker reuses one DP scratch across its rows. Every
// row is computed by exactly one worker from the same immutable snapshot,
// so the resulting table is identical — bit for bit — to a serial
// computation.
func ComputeRoutes(s *State, c *Classification, p Params) (*RouteTable, error) {
	switch p.PathStrategy {
	case PathEnumerate, PathDP:
	default:
		return nil, fmt.Errorf("core: unknown path strategy %d", p.PathStrategy)
	}
	rt := &RouteTable{
		Busy:       c.Busy,
		Candidates: c.Candidates,
		Seconds:    make([][]float64, len(c.Busy)),
		rows:       make([]routeRow, len(c.Busy)),
	}
	w := p.CostVector(s.G)
	explored := make([]int, len(c.Busy))
	errs := make([]error, len(c.Busy))

	if workers := p.routeWorkers(len(c.Busy)); workers <= 1 {
		sc := &graph.DPScratch{}
		for bi := range c.Busy {
			explored[bi], errs[bi] = computeRouteRow(s, c, rt, bi, p, w, sc)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := &graph.DPScratch{}
				for bi := range work {
					explored[bi], errs[bi] = computeRouteRow(s, c, rt, bi, p, w, sc)
				}
			}()
		}
		for bi := range c.Busy {
			work <- bi
		}
		close(work)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, n := range explored {
		rt.PathsExplored += n
	}
	return rt, nil
}

// computeRouteRow fills one busy row of the route table under the cost
// vector w, returning the number of simple paths it enumerated. Rows touch
// disjoint table slots, so rows can run concurrently as long as each has
// its own scratch.
func computeRouteRow(s *State, c *Classification, rt *RouteTable, bi int, p Params, w []float64, sc *graph.DPScratch) (explored int, err error) {
	b := c.Busy[bi]
	secs := make([]float64, len(c.Candidates))
	for j := range secs {
		secs[j] = math.Inf(1)
	}
	// In-situ compression (SmartNIC/DPU personas) shrinks what actually
	// crosses the network.
	data := s.effectiveDataMb(b)
	if data < 0 {
		return 0, fmt.Errorf("core: busy node %d has negative data volume", b)
	}

	switch p.PathStrategy {
	case PathEnumerate:
		cost := func(e graph.Edge) float64 { return w[e.ID] }
		routes := make([]graph.Path, s.G.NumNodes())
		rt.rows[bi].paths = routes
		for cj, cand := range c.Candidates {
			paths := graph.AllSimplePaths(s.G, b, cand, p.MaxHops, 0)
			explored += len(paths)
			best := math.Inf(1)
			var bestPath graph.Path
			for _, path := range paths {
				// Per-unit cost Σ 1/Lu_e; response time scales by D_i.
				unit := path.Cost(s.G, cost)
				if math.IsInf(unit, 1) {
					continue
				}
				t := data * unit
				switch {
				case graph.ApproxEqual(t, best):
					// Tie on response time: minimal hops distance priority.
					if path.Hops() < bestPath.Hops() {
						best, bestPath = t, path
					}
				case t < best:
					best, bestPath = t, path
				}
			}
			secs[cj], routes[cand] = best, bestPath
		}
	case PathDP:
		var dist []float64
		if graph.UnboundedHops(p.MaxHops, s.G.NumNodes()) {
			t := sc.ShortestTree(s.G, b, w)
			dist, rt.rows[bi].tree = t.Dist(), t
		} else {
			dist, rt.rows[bi].paths = sc.ShortestPaths(s.G, b, p.MaxHops, w)
		}
		for cj, cand := range c.Candidates {
			if !math.IsInf(dist[cand], 1) {
				secs[cj] = data * dist[cand]
			}
		}
	}
	rt.Seconds[bi] = secs
	return explored, nil
}

// routeWorkers resolves the Parallelism knob against the number of rows.
func (p Params) routeWorkers(rows int) int {
	w := p.Parallelism
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > rows {
		w = rows
	}
	return w
}

// ReachableCandidates returns, for busy row bi, the candidate columns with
// a finite response time.
func (rt *RouteTable) ReachableCandidates(bi int) []int {
	var out []int
	for cj, sec := range rt.Seconds[bi] {
		if !math.IsInf(sec, 1) {
			out = append(out, cj)
		}
	}
	return out
}

// AlternateRoutes returns up to k ranked controllable routes for an
// assignment — the minimum-response-time route first, then loopless
// backups in nondecreasing response time (Yen's algorithm). The Manager
// can pre-provision these as failover routes for the offload transfer.
func AlternateRoutes(s *State, a Assignment, model RateModel, k int) []RankedRoute {
	cost := graph.InverseRateCost(func(e graph.Edge) float64 { return model.rate(e) })
	paths := graph.KShortestPaths(s.G, a.Busy, a.Candidate, k, cost)
	data := s.effectiveDataMb(a.Busy)
	out := make([]RankedRoute, 0, len(paths))
	for _, p := range paths {
		out = append(out, RankedRoute{
			Route:           p,
			ResponseTimeSec: data * p.Cost(s.G, cost),
		})
	}
	return out
}

// RankedRoute is one controllable-route alternative.
type RankedRoute struct {
	Route           graph.Path
	ResponseTimeSec float64
}
