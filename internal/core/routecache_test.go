package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestRouteCacheExactWhenEpsilonZero checks the exactness guarantee: with
// CacheEpsilon = 0, warm solves after arbitrary rate mutations (up and
// down) return exactly what a cold ComputeRoutes would.
func TestRouteCacheExactWhenEpsilonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomConnected(12+rng.Intn(6), 0.3, 1000, rng)
		graph.RandomizeUtilization(g, 0.1, 0.9, rng)
		s, err := RandomState(g, DefaultScenario(), rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Classify(s, DefaultParams().Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Busy) == 0 || len(c.Candidates) == 0 {
			continue
		}
		p := Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: 4}
		rc := NewRouteCache(p)
		for round := 0; round < 6; round++ {
			got, err := rc.ComputeRoutes(s, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ComputeRoutes(s, c, p)
			if err != nil {
				t.Fatal(err)
			}
			routeTablesIdentical(t, want, got, "warm vs cold")
			// Mutate a few edges: raise some rates, lower others.
			for k := 0; k < 3; k++ {
				id := graph.EdgeID(rng.Intn(g.NumEdges()))
				g.SetUtilization(id, 0.05+0.9*rng.Float64())
			}
		}
	}
}

// TestRouteCacheEpsilonAbsorbsDrift checks the reuse rule on an
// unbounded-hops instance: sub-epsilon rate drift evicts nothing — every
// row hits — and the stale table is within the documented relative-error
// bound (1 + ε/(1−ε))² − 1 of the fresh one, whatever the route lengths.
func TestRouteCacheEpsilonAbsorbsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.FatTree(4, 1000)
	graph.RandomizeUtilization(g, 0.3, 0.7, rng)
	s, err := RandomState(g, DefaultScenario(), rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Classify(s, DefaultParams().Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Busy) == 0 {
		c.Busy = []int{0, 1, 2}
		c.Candidates = []int{5, 6, 7}
	}
	const eps = 0.05
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP, CacheEpsilon: eps}
	rc := NewRouteCache(p)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	cold := rc.Stats()
	if cold.Misses != len(c.Busy) || cold.Hits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses", cold, len(c.Busy))
	}
	// Drift every edge's rate up or down by up to 4.9% of the larger
	// rate, just under the 5% tolerance.
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		f := 1 - 0.049*rng.Float64()
		if rng.Intn(2) == 0 {
			f = 1 / f
		}
		g.SetUtilization(graph.EdgeID(i), e.Utilization*f)
	}
	got, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	warm := rc.Stats()
	if warm.Evicted != 0 {
		t.Fatalf("sub-epsilon drift evicted %d rows", warm.Evicted)
	}
	if warm.Hits != len(c.Busy) {
		t.Fatalf("warm stats = %+v, want %d hits", warm, len(c.Busy))
	}
	// The reused table is stale but bounded: each per-edge cost moved by
	// a factor within 1/(1−ε) either way, and so did every path sum.
	fresh, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Pow(1+eps/(1-eps), 2) - 1
	for bi := range fresh.Seconds {
		for cj := range fresh.Seconds[bi] {
			a, b := got.Seconds[bi][cj], fresh.Seconds[bi][cj]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("[%d][%d]: reachability changed under sub-eps drift", bi, cj)
			}
			if math.IsInf(b, 1) {
				continue
			}
			if math.Abs(a-b) > bound*b {
				t.Fatalf("[%d][%d]: stale %v vs fresh %v beyond the %.4f relative bound", bi, cj, a, b, bound)
			}
		}
	}
}

// TestRouteCacheTargetedInvalidation checks that a rate change evicts only
// the rows it can affect: on a 10-node line with busy ends and a 3-hop
// bound, a change next to node 0 is outside node 9's frontier and off all
// of node 9's routes, so row 9 must survive while row 0 is evicted.
func TestRouteCacheTargetedInvalidation(t *testing.T) {
	g := graph.Line(10, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	s := NewState(g)
	for i := range s.Util {
		s.Util[i] = 30
	}
	s.DataMb = make([]float64, 10)
	for i := range s.DataMb {
		s.DataMb[i] = 100
	}
	c := &Classification{
		Busy:       []int{0, 9},
		Candidates: []int{3, 6},
		Cs:         []float64{10, 10},
		Cd:         []float64{20, 20},
	}
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: 3}
	rc := NewRouteCache(p)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Misses != 2 {
		t.Fatalf("cold stats = %+v, want 2 misses", st)
	}
	// Edge 0 joins nodes 0-1: inside row 0's 3-hop frontier, 6 hops from
	// node 9. Double its rate — beyond any epsilon.
	g.SetUtilization(0, 1.0)
	want, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Evicted != 1 {
		t.Fatalf("stats = %+v, want exactly 1 eviction (row 0)", st)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 warm hit (row 9) and 3 total misses", st)
	}
	routeTablesIdentical(t, want, got, "after targeted eviction")

	// Now worsen an edge on row 9's cached route (edge 8 joins 8-9) —
	// row 9 must go, and row 0 (which cannot reach it) must survive.
	g.SetUtilization(8, 0.25)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	st2 := rc.Stats()
	if st2.Evicted != 2 {
		t.Fatalf("stats = %+v, want 2 total evictions", st2)
	}
	if st2.Hits != 2 || st2.Misses != 4 {
		t.Fatalf("stats = %+v, want row 0 hit on the second warm solve", st2)
	}
}

// TestRouteCacheRepairsEvictedRows: under unbounded hops a row evicted in
// a round where its source is busy is repaired into the cold row, and
// counts as Evicted, as a Miss and as Repaired; a row evicted while its
// source is not busy is dropped with the round, so the source's next miss
// is cold. Under a hop bound nothing is repaired.
func TestRouteCacheRepairsEvictedRows(t *testing.T) {
	g := graph.Line(10, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	s := NewState(g)
	for i := range s.DataMb {
		s.DataMb[i] = 1
	}
	both := &Classification{Busy: []int{0, 9}, Candidates: []int{3, 6}}
	only0 := &Classification{Busy: []int{0}, Candidates: []int{3, 6}}
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP}
	rc := NewRouteCache(p)
	round := func(c *Classification, label string, want CacheStats) {
		t.Helper()
		got, err := rc.ComputeRoutes(s, c)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ComputeRoutes(s, c, p)
		if err != nil {
			t.Fatal(err)
		}
		routeTablesIdentical(t, cold, got, label)
		if st := rc.Stats(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", label, st, want)
		}
	}
	round(both, "cold", CacheStats{Misses: 2, Flushes: 1})
	// Edge 4 (4-5) is on both rows' routes: dearer, it evicts both, and
	// both sources are busy, so both rows are repaired.
	g.SetUtilization(4, 0.25)
	round(both, "dearer", CacheStats{Misses: 4, Evicted: 2, Flushes: 1, Repaired: 2})
	// Cheaper again it evicts both, but only node 0 is busy: row 9 is
	// dropped, and its next miss is cold.
	g.SetUtilization(4, 0.5)
	round(only0, "cheaper", CacheStats{Misses: 5, Evicted: 4, Flushes: 1, Repaired: 3})
	round(both, "row 9 back", CacheStats{Hits: 1, Misses: 6, Evicted: 4, Flushes: 1, Repaired: 3})

	p.MaxHops = 5
	rc = NewRouteCache(p)
	round(both, "bounded cold", CacheStats{Misses: 2, Flushes: 1})
	g.SetUtilization(4, 0.25)
	round(both, "bounded dearer", CacheStats{Misses: 4, Evicted: 2, Flushes: 1})
}

// TestRouteCacheMeasuredRevalidation checks the measured-costs loop: a
// probe-reported congestion shifts an edge's effective rate, which must
// evict exactly the rows that edge can affect (no graph mutation, no full
// rebuild), while sub-epsilon measured jitter is absorbed and a staleness
// expiry restores the static model.
func TestRouteCacheMeasuredRevalidation(t *testing.T) {
	g := graph.Line(10, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	s := NewState(g)
	for i := range s.Util {
		s.Util[i] = 30
	}
	s.DataMb = make([]float64, 10)
	for i := range s.DataMb {
		s.DataMb[i] = 100
	}
	c := &Classification{
		Busy:       []int{0, 9},
		Candidates: []int{3, 6},
		Cs:         []float64{10, 10},
		Cd:         []float64{20, 20},
	}
	now := time.Unix(1_700_000_000, 0)
	mc := graph.NewMeasuredCosts(g, time.Minute, func() time.Time { return now })
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP, MaxHops: 3, CacheEpsilon: 0.05, Measured: mc}
	rc := NewRouteCache(p)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Misses != 2 || st.Flushes != 1 {
		t.Fatalf("cold stats = %+v, want 2 misses, 1 flush", st)
	}

	// Sub-epsilon measured jitter: RTT 1% over baseline shifts the
	// effective rate by 1%, inside the 5% tolerance — all rows reused.
	mc.Observe(0, 1, 100*time.Millisecond, 0, now) // baseline
	mc.Observe(0, 1, 101*time.Millisecond, 0, now) // +1%
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Evicted != 0 || st.Hits != 2 {
		t.Fatalf("sub-eps measured jitter stats = %+v, want 2 hits, 0 evictions", st)
	}

	// Real congestion on edge 0 (nodes 0-1): RTT 4x baseline drops the
	// effective rate 4x — inside row 0's 3-hop frontier, unreachable from
	// row 9. Exactly one eviction, and the warm table matches cold.
	mc.Observe(0, 1, 400*time.Millisecond, 0, now)
	want, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Evicted != 1 || st.Hits != 3 || st.Misses != 3 || st.Flushes != 1 {
		t.Fatalf("measured congestion stats = %+v, want exactly 1 eviction (row 0), no flush", st)
	}
	routeTablesIdentical(t, want, got, "after measured congestion")

	// Staleness expiry: past the horizon the measurement evaporates, the
	// edge's effective rate snaps back up (cheaper, still row 0's
	// frontier only), and the static model is in force again.
	now = now.Add(2 * time.Minute)
	want2, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	st2 := rc.Stats()
	if st2.Evicted != 2 || st2.Flushes != 1 {
		t.Fatalf("expiry stats = %+v, want 2 total evictions, still 1 flush", st2)
	}
	routeTablesIdentical(t, want2, got2, "after measurement expiry")
	pStatic := p
	pStatic.Measured = nil
	want3, err := ComputeRoutes(s, c, pStatic)
	if err != nil {
		t.Fatal(err)
	}
	routeTablesIdentical(t, want3, got2, "expired overlay vs static model")
}

// TestRouteCacheWorsenedUnusedEdgeKeepsRows: making an edge worse that no
// cached route uses — and whose row frontier it sits in — must not evict
// anything: a worsened unused edge cannot change an optimum.
func TestRouteCacheWorsenedUnusedEdgeKeepsRows(t *testing.T) {
	// Diamond: 0-1-3 (fast) and 0-2-3 (slow). Busy 0, candidate 3.
	g := graph.New(4)
	g.AddEdge(0, 1, 1000)
	g.AddEdge(1, 3, 1000)
	e02 := g.AddEdge(0, 2, 1000)
	g.AddEdge(2, 3, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.8)
	}
	// Make the 0-2 edge so slow that no shortest path — not even the one
	// to node 2 itself — uses it: 1/Lu = 0.02 vs 3 hops · 0.00125 around.
	g.SetUtilization(e02, 0.05)
	s := NewState(g)
	s.DataMb = []float64{100, 0, 0, 0}
	c := &Classification{Busy: []int{0}, Candidates: []int{3}, Cs: []float64{10}, Cd: []float64{20}}
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP}
	rc := NewRouteCache(p)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	// Worsen the already-unused slow branch further.
	g.SetUtilization(e02, 0.02)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Evicted != 0 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 0 evictions and a hit", st)
	}
	// But improving it beyond the used branch must evict (frontier rule)
	// and the recomputed route must switch branches.
	g.SetUtilization(e02, 1.0)
	g.SetUtilization(3, 1.0) // edge 2-3 too
	rt, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Evicted != 1 {
		t.Fatalf("stats = %+v, want the improved-edge eviction", st)
	}
	want, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	routeTablesIdentical(t, want, rt, "after improvement")
}

// TestRouteCacheFlushForcesCold verifies Flush drops every row and the
// next solve recomputes (the cold-path benchmarks depend on this).
func TestRouteCacheFlushForcesCold(t *testing.T) {
	s, th := lineState()
	c, err := Classify(s, th)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{RateModel: RateUtilized, PathStrategy: PathDP}
	rc := NewRouteCache(p)
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	rc.Flush()
	if _, err := rc.ComputeRoutes(s, c); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Hits != 0 || st.Misses != 2*len(c.Busy) {
		t.Fatalf("stats = %+v, want all misses after Flush", st)
	}
}

// TestRouteCachePassThroughForEnumeration: non-DP strategies bypass the
// cache entirely (no stats traffic) but still return correct tables.
func TestRouteCachePassThroughForEnumeration(t *testing.T) {
	s, th := lineState()
	c, err := Classify(s, th)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{RateModel: RateUtilized, PathStrategy: PathEnumerate}
	rc := NewRouteCache(p)
	got, err := rc.ComputeRoutes(s, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeRoutes(s, c, p)
	if err != nil {
		t.Fatal(err)
	}
	routeTablesIdentical(t, want, got, "passthrough")
	if st := rc.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("passthrough touched cache stats: %+v", st)
	}
}
