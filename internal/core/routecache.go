package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// RouteCache caches per-source route computations across Manager ticks and
// revalidates them against link-rate drift instead of recomputing. A cache
// is bound to one Params set, so its entries are keyed by the remaining
// coordinates of the route problem: the topology generation (graph
// instance + mutation version + per-edge Lu snapshot), the busy role set
// (one cached row per busy source; the candidate set is applied at
// assembly time, so role churn alone never invalidates), the rate model,
// and the hop bound.
//
// Each round reads every edge's effective rate once, from one snapshot of
// the measurement overlay. Revalidation rule, per edge whose rate Lu
// drifted since the cache's snapshot:
//
//   - drift within CacheEpsilon (relative): the change is absorbed — every
//     row is reused as is, with the response-time error bound given at
//     Params.CacheEpsilon.
//   - Lu increased beyond ε (per-hop cost 1/Lu dropped to w′), unbounded
//     hops: evict the rows the edge (u, v) can improve, those with
//     dist[u] + w′ ≤ dist[v] + slack from a reachable u, or the mirror
//     (cacheRow.mayImprove). Any other row keeps every dist and path.
//   - Lu increased beyond ε, bounded hops: evict the rows whose hop-bounded
//     candidate frontier contains the edge — a cheaper edge inside the
//     frontier can create a better route, one outside it cannot be on any
//     route.
//   - Lu decreased beyond ε (cost rose, or the edge became impassable):
//     evict only the rows whose cached routes use the edge — routes that
//     avoid an edge stay optimal when that edge gets worse.
//
// With CacheEpsilon = 0 the rules are exact: a cached solve returns the same
// table a cold solve would. Sub-ε drift accumulates against the snapshot,
// so a slow ramp still evicts once it crosses ε in total.
//
// Under unbounded hops a row is a graph.Tree, and an evicted row is
// repaired rather than recomputed when its source is busy in the same
// round: DPScratch.RepairTree re-derives it from the edges whose cost
// differs from the cost vector the row was built under, into the row a
// cold computation would return at the round's costs. Evicted rows no busy
// source claims are dropped when the round ends.
//
// Only the PathDP strategy is cached (exhaustive enumeration is dominated
// by per-pair path explosion by design); other strategies pass through to
// ComputeRoutes, which still fans out across the worker pool.
type RouteCache struct {
	params Params

	// scratch pools the route workers' DP buffers across rounds.
	scratch sync.Pool

	mu sync.Mutex
	// The cache is valid for one (graph instance, version) pair: version
	// counters are per-instance, so two clones can coincidentally share a
	// version while carrying different link rates.
	g       *graph.Graph
	version uint64
	// mver is the measurement-overlay version the surviving rows were
	// validated against (0 when Params.Measured is nil). Measured drift
	// flows through the same per-edge ε rule as utilization drift: the
	// version mismatch only triggers the effective-rate sweep, and sub-ε
	// RTT jitter is absorbed without evicting anything.
	mver uint64
	// lu[i] is the model-resolved rate of edge i the surviving rows were
	// validated against (updated only when an edge's drift crosses ε).
	lu []float64
	// rates is the current round's effective rate per edge.
	rates []float64
	rows  map[int]*cacheRow
	// last describes the table the previous round assembled.
	last lastTable
	st   CacheStats
}

// lastTable is what each row of the last assembled table was derived from:
// the busy node, its cache row and its effective data volume, over one
// candidate list. A row whose inputs are all unchanged is shared with the
// next table instead of rebuilt; rows are never written after assembly, so
// a table held from an earlier round stays valid. The slices are the
// cache's own copies, since a caller may reuse its classification.
type lastTable struct {
	busy, cands []int
	rows        []*cacheRow
	data        []float64
	secs        [][]float64
}

// cacheRow is one source's per-unit (per-Mb) route computation.
type cacheRow struct {
	dist []float64
	// tree holds the routes under unbounded hops, paths under a hop bound.
	tree  *graph.Tree
	paths []graph.Path
	// w is the cost vector the row was computed under, shared read-only
	// with the other rows of that round; a repair diffs against it.
	w []float64
	// used marks, under a hop bound, the edges on some cached optimal
	// path: a dearer edge evicts exactly the rows that use it (see uses).
	used []bool
	// frontier marks the edges within the hop bound of the source, which a
	// cheaper edge must lie in to evict the row. Nil under unbounded hops,
	// where a cheaper edge is tested against dist instead (mayImprove).
	frontier []bool
	// slack absorbs float rounding in mayImprove (see roundingSlack).
	slack float64
}

// CacheStats counts cache traffic (for tests, telemetry, and tuning).
type CacheStats struct {
	// Hits and Misses count per-source row lookups.
	Hits, Misses int
	// Evicted counts rows dropped by targeted invalidation; Flushes counts
	// whole-cache resets (new graph instance or structural change).
	Evicted, Flushes int
	// Repaired counts the misses served by repairing a row evicted in the
	// same round (each also counts as Evicted and as a Miss).
	Repaired int
}

// NewRouteCache creates an empty cache with fixed parameters.
func NewRouteCache(params Params) *RouteCache {
	return &RouteCache{params: params, rows: make(map[int]*cacheRow)}
}

// Params returns the cache's solve configuration.
func (rc *RouteCache) Params() Params { return rc.params }

// Stats returns a snapshot of the cache counters.
func (rc *RouteCache) Stats() CacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.st
}

// Flush drops every cached row (tests and benchmarks force cold solves
// with it).
func (rc *RouteCache) Flush() {
	rc.mu.Lock()
	rc.g = nil
	rc.lu = nil
	rc.rows = make(map[int]*cacheRow)
	rc.last = lastTable{}
	rc.mu.Unlock()
}

// ComputeRoutes builds the route table for the classified state, reusing
// every cached row the revalidation rule lets it keep and computing the
// missing rows in parallel across the Params worker pool.
func (rc *RouteCache) ComputeRoutes(s *State, c *Classification) (*RouteTable, error) {
	if rc.params.PathStrategy != PathDP {
		return ComputeRoutes(s, c, rc.params)
	}

	rc.mu.Lock()
	var mver uint64
	rc.rates, mver = rc.params.edgeRates(s.G, rc.rates)
	evicted := rc.revalidate(s.G, rc.rates, mver)
	version := rc.version
	entries := make([]*cacheRow, len(c.Busy))
	var missing []int    // indices into c.Busy
	var prev []*cacheRow // per missing row: the evicted row to repair, or nil
	for bi, b := range c.Busy {
		if row, ok := rc.rows[b]; ok {
			entries[bi] = row
			rc.st.Hits++
			continue
		}
		missing = append(missing, bi)
		rc.st.Misses++
		old := evicted[b]
		if old != nil {
			rc.st.Repaired++
		}
		prev = append(prev, old)
	}
	// The round's cost vector, shared read-only by every worker and kept
	// by the rows built under it.
	var w []float64
	if len(missing) > 0 {
		w = make([]float64, len(rc.rates))
		for i, r := range rc.rates {
			w[i] = graph.InverseRate(r)
		}
	}
	rc.mu.Unlock()

	var fresh []*cacheRow
	if len(missing) > 0 {
		fresh = rc.computeRows(s.G, c.Busy, missing, prev, w)
	}

	rc.mu.Lock()
	defer rc.mu.Unlock()
	// Only store if the cache generation is still current: a concurrent
	// round may have revalidated against a newer graph or overlay.
	store := rc.g == s.G && rc.version == version && rc.mver == mver
	for mi, bi := range missing {
		entries[bi] = fresh[mi]
		if store {
			rc.rows[c.Busy[bi]] = fresh[mi]
		}
	}
	return rc.assemble(s, c, entries)
}

// computeRows builds the rows of the busy nodes at the missing indices
// under the round's cost vector w, fanned out across the worker pool: a
// repair of prev[mi] where there is one, a cold computation otherwise.
// Workers claim rows from a shared counter, the calling goroutine among
// them, and take their scratch from the cache's pool, so a round of
// microsecond repairs pays neither a channel hand-off per row nor fresh
// buffers per worker.
func (rc *RouteCache) computeRows(g *graph.Graph, busy, missing []int, prev []*cacheRow, w []float64) []*cacheRow {
	fresh := make([]*cacheRow, len(missing))
	var next atomic.Int64
	work := func() {
		sc, _ := rc.scratch.Get().(*graph.DPScratch)
		if sc == nil {
			sc = new(graph.DPScratch)
		}
		for mi := int(next.Add(1) - 1); mi < len(missing); mi = int(next.Add(1) - 1) {
			fresh[mi] = rc.computeRow(g, busy[missing[mi]], prev[mi], w, sc)
		}
		rc.scratch.Put(sc)
	}
	var wg sync.WaitGroup
	for range rc.params.routeWorkers(len(missing)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return fresh
}

// computeRow computes src's row under the round's cost vector w and
// derives its invalidation data: under unbounded hops by repairing prev
// when there is one, otherwise with the DP.
func (rc *RouteCache) computeRow(g *graph.Graph, src int, prev *cacheRow, w []float64, sc *graph.DPScratch) *cacheRow {
	row := &cacheRow{w: w}
	if graph.UnboundedHops(rc.params.MaxHops, g.NumNodes()) {
		if prev != nil {
			row.tree = sc.RepairTree(prev.tree, prev.w, w)
		} else {
			row.tree = sc.ShortestTree(g, src, w)
		}
		row.dist = row.tree.Dist()
		row.slack = roundingSlack(row.dist)
		return row
	}
	row.dist, row.paths = sc.ShortestPaths(g, src, rc.params.MaxHops, w)
	row.used = make([]bool, g.NumEdges())
	for _, p := range row.paths {
		for _, id := range p.Edges {
			row.used[id] = true
		}
	}
	row.frontier = graph.EdgeFrontier(g, src, rc.params.MaxHops)
	return row
}

// roundingSlack is n ulps of the row's largest finite dist, n = len(dist).
// A walk entering a cheaper edge strictly above dist + slack at its far
// end stays strictly above the row's optimum at every node it reaches: it
// takes at most n−1 further additions, each of which can narrow the gap to
// the optimal walk by at most one ulp of the values involved while they
// stay within the row's largest dist. So such an edge can neither improve
// nor tie any cost the DP compares, and the row's dist and paths are what
// a cold DP would return.
func roundingSlack(dist []float64) float64 {
	top := 0.0
	for _, d := range dist {
		if d > top && !math.IsInf(d, 1) {
			top = d
		}
	}
	return float64(len(dist)) * (math.Nextafter(top, math.Inf(1)) - top)
}

// mayImprove is the unbounded-hops test for an edge whose cost fell to w:
// entered from a reachable endpoint, it must reach the other endpoint at no
// more than that endpoint's cost plus the row's rounding slack to change
// anything. An exact tie counts, since it can flip the DP's tie-break.
func (row *cacheRow) mayImprove(e graph.Edge, w float64) bool {
	du, dv := row.dist[e.U], row.dist[e.V]
	return !math.IsInf(du, 1) && du+w <= dv+row.slack ||
		!math.IsInf(dv, 1) && dv+w <= du+row.slack
}

// uses reports whether some cached path traverses edge i.
func (row *cacheRow) uses(i int) bool {
	if row.tree != nil {
		return row.tree.Uses(graph.EdgeID(i))
	}
	return row.used[i]
}

// stale reports whether the edges that got cheaper or dearer beyond ε can
// change the row. rates holds the edges' current effective rates.
func (row *cacheRow) stale(g *graph.Graph, cheaper, dearer []int, rates []float64) bool {
	for _, i := range dearer {
		if row.uses(i) {
			return true
		}
	}
	for _, i := range cheaper {
		if row.frontier != nil {
			if row.frontier[i] {
				return true
			}
		} else if row.mayImprove(g.Edge(graph.EdgeID(i)), graph.InverseRate(rates[i])) {
			return true
		}
	}
	return false
}

// revalidate brings the cache up to the graph's current generation and
// the measurement overlay version mver, whose effective rates per edge are
// rates, evicting exactly the rows the drift can affect. Under unbounded
// hops it returns the evicted rows by source, for repair. Called with
// rc.mu held.
func (rc *RouteCache) revalidate(g *graph.Graph, rates []float64, mver uint64) map[int]*cacheRow {
	if g != rc.g || len(rc.lu) != len(rates) {
		// New graph instance or structural change: full reset.
		rc.g = g
		rc.version = g.Version()
		rc.mver = mver
		rc.lu = append(rc.lu[:0], rates...)
		rc.rows = make(map[int]*cacheRow)
		rc.st.Flushes++
		return nil
	}
	if g.Version() == rc.version && mver == rc.mver {
		return nil
	}
	eps := rc.params.CacheEpsilon
	var cheaper, dearer []int // edge IDs whose per-hop cost dropped / rose beyond ε
	for i, nl := range rates {
		ol := rc.lu[i]
		if nl == ol {
			continue
		}
		if math.Abs(nl-ol) <= eps*math.Max(math.Abs(ol), math.Abs(nl)) {
			continue // sub-ε drift: absorbed, snapshot kept so drift accumulates
		}
		if nl > ol {
			cheaper = append(cheaper, i) // higher Lu ⇒ lower 1/Lu cost
		} else {
			dearer = append(dearer, i)
		}
		rc.lu[i] = nl
	}
	rc.version = g.Version()
	rc.mver = mver
	if len(cheaper) == 0 && len(dearer) == 0 {
		return nil
	}
	repairable := graph.UnboundedHops(rc.params.MaxHops, g.NumNodes())
	var evicted map[int]*cacheRow
	for src, row := range rc.rows {
		if row.stale(g, cheaper, dearer, rates) {
			delete(rc.rows, src)
			rc.st.Evicted++
			if repairable {
				if evicted == nil {
					evicted = make(map[int]*cacheRow)
				}
				evicted[src] = row
			}
		}
	}
	return evicted
}

// assemble scales the per-unit rows by each busy node's effective data
// volume and restricts them to the candidate columns. A row whose busy
// node, cache row and data volume are those of a row of the last table,
// over the same candidate list, is that row: it is shared, not rebuilt.
// Called with rc.mu held.
func (rc *RouteCache) assemble(s *State, c *Classification, entries []*cacheRow) (*RouteTable, error) {
	rt := &RouteTable{
		Busy:       c.Busy,
		Candidates: c.Candidates,
		Seconds:    make([][]float64, len(c.Busy)),
		rows:       make([]routeRow, len(c.Busy)),
	}
	last := &rc.last
	reuse := slices.Equal(last.cands, c.Candidates)
	k := 0 // merge cursor into last.busy; both lists ascend
	for bi, b := range c.Busy {
		data := s.effectiveDataMb(b)
		if data < 0 {
			return nil, fmt.Errorf("core: busy node %d has negative data volume", b)
		}
		row := entries[bi]
		rt.rows[bi] = routeRow{tree: row.tree, paths: row.paths}
		if reuse {
			for k < len(last.busy) && last.busy[k] < b {
				k++
			}
			if k < len(last.busy) && last.busy[k] == b && last.rows[k] == row &&
				math.Float64bits(last.data[k]) == math.Float64bits(data) {
				rt.Seconds[bi] = last.secs[k]
				continue
			}
		}
		secs := make([]float64, len(c.Candidates))
		for cj, cand := range c.Candidates {
			if math.IsInf(row.dist[cand], 1) {
				secs[cj] = math.Inf(1)
				continue
			}
			secs[cj] = data * row.dist[cand]
		}
		rt.Seconds[bi] = secs
	}
	last.busy = append(last.busy[:0], c.Busy...)
	last.cands = append(last.cands[:0], c.Candidates...)
	last.rows = entries
	last.secs = append(last.secs[:0], rt.Seconds...)
	last.data = last.data[:0]
	for _, b := range c.Busy {
		last.data = append(last.data, s.effectiveDataMb(b))
	}
	return rt, nil
}
