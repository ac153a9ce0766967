package core

import (
	"sync"
	"time"

	"repro/internal/lp"
)

// Planner is a Solve front-end over a RouteCache: it caches per-source
// route computations across placement rounds and revalidates them against
// link-rate drift instead of recomputing. Between the Manager's periodic
// rounds the topology's link utilizations usually do not change even
// though node roles do (STAT updates move C_j, not Lu); the hop-bounded DP
// from one busy node is then reusable verbatim, and when rates do drift
// the cache's targeted invalidation keeps every row the drift cannot
// affect (see RouteCache for the rule).
//
// Only the PathDP strategy is cacheable (exhaustive enumeration is
// per-pair and dominated by path explosion by design); Solve calls with
// PathEnumerate pass through uncached but still parallel.
//
// The planner also owns one transportation workspace (lp.Transport), so a
// round's solve reuses the previous round's tableau and output arrays
// instead of allocating them. Rounds on one planner are serialised, route
// computation included: the cache repairs the previous round's trees in
// place. A Result's Seconds and Assignments, their Route paths included,
// stay valid after the next round; its Routes table's Route and the trees
// behind it are valid only until the next round.
type Planner struct {
	cache *RouteCache

	mu sync.Mutex // serialises rounds; guards lp
	lp lp.Transport
}

// NewPlanner creates a planner with fixed parameters.
func NewPlanner(params Params) *Planner {
	return &Planner{cache: NewRouteCache(params)}
}

// Params returns the planner's solve configuration.
func (pl *Planner) Params() Params { return pl.cache.Params() }

// Cache exposes the planner's route cache (stats, forced flushes).
func (pl *Planner) Cache() *RouteCache { return pl.cache }

// Stats reports cache hits and misses (for tests and telemetry).
func (pl *Planner) Stats() (hits, misses int) {
	st := pl.cache.Stats()
	return st.Hits, st.Misses
}

// Solve runs the placement pipeline, reusing every cached route
// computation the revalidation rule lets it keep.
func (pl *Planner) Solve(s *State) (*Result, error) {
	c, err := Classify(s, pl.Params().Thresholds)
	if err != nil {
		return nil, err
	}
	return pl.SolveClassified(s, c)
}

// SolveClassified is Solve with a caller-supplied classification (the
// Manager classifies with per-client threshold overrides).
func (pl *Planner) SolveClassified(s *State, c *Classification) (*Result, error) {
	if len(c.Busy) == 0 {
		return &Result{Status: StatusOptimal, Classification: c}, nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	t0 := time.Now()
	rt, err := pl.cache.ComputeRoutes(s, c)
	if err != nil {
		return nil, err
	}
	routeDur := time.Since(t0)

	t1 := time.Now()
	res, err := solveWithRoutes(s, c, rt, pl.Params(), &pl.lp)
	solveDur := time.Since(t1)
	if err != nil {
		return nil, err
	}
	res.RouteDuration = routeDur
	res.SolveDuration = solveDur
	return res, nil
}

// SolveClassifiedDelta is SolveClassified; the change description is
// ignored. Every round is one cold transportation solve (DESIGN.md §17),
// so a delta has nothing left to steer. It stays for callers that thread
// an NMDB delta through.
func (pl *Planner) SolveClassifiedDelta(s *State, c *Classification, _ *PlanDelta) (*Result, error) {
	return pl.SolveClassified(s, c)
}
