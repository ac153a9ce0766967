package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestPlannerMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.FatTree(8, 1000)
	params := DefaultParams()
	params.PathStrategy = PathDP
	params.MaxHops = 7
	pl := NewPlanner(params)

	for trial := 0; trial < 8; trial++ {
		s, err := RandomState(g.Clone(), DefaultScenario(), rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(s, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if want.Status != got.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, want.Status, got.Status)
		}
		if want.Status == StatusOptimal &&
			math.Abs(want.Objective-got.Objective) > 1e-6*math.Max(1, want.Objective) {
			t.Fatalf("trial %d: objective %g vs %g", trial, want.Objective, got.Objective)
		}
		if got.Status == StatusOptimal {
			if err := VerifyResult(s, params.Thresholds, got); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestPlannerCachesAcrossRounds(t *testing.T) {
	// Same graph (and therefore graph version), roles changing between
	// rounds: the second round's busy nodes that repeat must hit.
	rng := rand.New(rand.NewSource(3))
	g := graph.FatTree(4, 1000)
	graph.RandomizeUtilization(g, 0.2, 0.8, rng)
	params := DefaultParams()
	params.PathStrategy = PathDP
	pl := NewPlanner(params)

	s := NewState(g)
	for i := range s.Util {
		s.Util[i] = 30
	}
	s.Util[0] = 90
	s.DataMb[0] = 50
	if _, err := pl.Solve(s); err != nil {
		t.Fatal(err)
	}
	_, misses1 := pl.Stats()
	if misses1 != 1 {
		t.Fatalf("first round misses = %d, want 1 (one busy node)", misses1)
	}

	// Round 2: the same node busy again (e.g. its STAT moved) — pure hit.
	s.Util[0] = 95
	if _, err := pl.Solve(s); err != nil {
		t.Fatal(err)
	}
	hits, misses := pl.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("after round 2: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Link utilization changes → version moves → cache invalidated.
	g.SetUtilization(0, 0.9)
	if _, err := pl.Solve(s); err != nil {
		t.Fatal(err)
	}
	hits, misses = pl.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("after invalidation: hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestPlannerPassThroughForEnumeration(t *testing.T) {
	s, th := lineState()
	params := DefaultParams()
	params.Thresholds = th
	params.PathStrategy = PathEnumerate
	pl := NewPlanner(params)
	res, err := pl.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if hits, misses := pl.Stats(); hits != 0 || misses != 0 {
		t.Fatal("enumeration mode must bypass the cache")
	}
}

func BenchmarkPlannerRepeatedRounds(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.FatTree(8, 1000)
	graph.RandomizeUtilization(g, 0.2, 0.8, rng)
	params := DefaultParams()
	params.PathStrategy = PathDP
	params.MaxHops = 7
	s, err := RandomState(g, DefaultScenario(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(s, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planner", func(b *testing.B) {
		pl := NewPlanner(params)
		for i := 0; i < b.N; i++ {
			if _, err := pl.Solve(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestPlannerParamsAndInfeasible(t *testing.T) {
	params := DefaultParams()
	params.PathStrategy = PathDP
	params.MaxHops = 3
	pl := NewPlanner(params)
	if pl.Params().MaxHops != 3 {
		t.Fatal("Params should echo the configuration")
	}
	// Infeasible through the cached path: no candidates at all.
	g := graph.Line(2, 100)
	g.SetUtilization(0, 0.5)
	s := NewState(g)
	s.Util = []float64{90, 60}
	s.DataMb = []float64{10, 0}
	res, err := pl.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (no candidates)", res.Status)
	}
	// Heterogeneous solve through the planner (simplex branch of
	// solveWithRoutes) and the ILP branch.
	s2 := NewState(graph.Line(2, 100).Clone())
	s2.G.SetUtilization(0, 0.5)
	s2.Util = []float64{100, 40}
	s2.DataMb = []float64{10, 0}
	if err := s2.SetPersonas([]Persona{
		DefaultPersona(ClassSwitch), DefaultPersona(ClassServer),
	}); err != nil {
		t.Fatal(err)
	}
	res, err = pl.Solve(s2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("heterogeneous planner solve = %v", res.Status)
	}
	ilp := DefaultParams()
	ilp.PathStrategy = PathDP
	ilp.Solver = SolverILP
	pl2 := NewPlanner(ilp)
	s3, th := lineState()
	_ = th
	res, err = pl2.Solve(s3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("ILP planner solve = %v", res.Status)
	}
}

// TestPlannerResultOutlivesNextRound: a Result stays valid, bit for bit,
// after the planner's next round, even though that round shares route
// table rows with it and reuses the solver's workspace. Round r+1 changes
// one busy node's data volume and makes one link dearer, which evicts the
// cache rows routed over it; every other row must be shared, not copied.
func TestPlannerResultOutlivesNextRound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.FatTree(8, 1000)
	params := DefaultParams()
	params.PathStrategy = PathDP
	s, err := RandomState(g, DefaultScenario(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(params)
	res1, err := pl.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	busy := res1.Classification.Busy
	if res1.Status != StatusOptimal || len(busy) < 3 {
		t.Fatalf("fixture: status %v with %d busy nodes", res1.Status, len(busy))
	}
	secs1 := make([][]float64, len(busy))
	for bi, row := range res1.Routes.Seconds {
		secs1[bi] = append([]float64(nil), row...)
	}
	assign1 := cloneAssignments(res1.Assignments)

	// The dearer link lies on a route of the last busy node's cache row.
	changed := busy[0]
	var edge graph.EdgeID = -1
	last := pl.cache.rows[busy[len(busy)-1]].tree
	for v := range g.NumNodes() {
		if p := last.Path(v); len(p.Edges) > 0 {
			edge = p.Edges[0]
			break
		}
	}
	if edge < 0 {
		t.Fatal("fixture: last busy node has no routes")
	}
	before := make(map[int]*cacheRow, len(busy))
	for _, b := range busy {
		before[b] = pl.cache.rows[b]
	}
	s.DataMb[changed] *= 1.5
	g.SetUtilization(edge, g.Edge(edge).Utilization/2)
	res2, err := pl.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res2.Classification.Busy, busy) {
		t.Fatal("fixture: the busy set moved between rounds")
	}
	if st := pl.cache.Stats(); st.Evicted == 0 {
		t.Fatal("the link edit evicted no row")
	}

	for bi, row := range res1.Routes.Seconds {
		for cj, v := range row {
			if math.Float64bits(v) != math.Float64bits(secs1[bi][cj]) {
				t.Fatalf("round r's Seconds[%d][%d] changed: %g -> %g", bi, cj, secs1[bi][cj], v)
			}
		}
	}
	if !sameAssignments(res1.Assignments, assign1) {
		t.Fatal("round r's assignments changed after round r+1")
	}

	shared := 0
	for bi, b := range busy {
		want := b != changed && pl.cache.rows[b] == before[b]
		got := len(res2.Routes.Seconds[bi]) > 0 && &res2.Routes.Seconds[bi][0] == &res1.Routes.Seconds[bi][0]
		if got != want {
			t.Fatalf("busy node %d: row shared=%v, want %v", b, got, want)
		}
		if got {
			shared++
		}
	}
	if shared == 0 || shared == len(busy) {
		t.Fatalf("%d of %d rows shared; the fixture should share some, not all", shared, len(busy))
	}
}

// TestPlannerConcurrentSolves: two goroutines solving on one planner share
// its route cache and transport workspace; under -race this must stay
// clean, and each must get the stateless solve's objective.
func TestPlannerConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.FatTree(4, 1000)
	graph.RandomizeUtilization(g, 0.2, 0.8, rng)
	params := DefaultParams()
	params.PathStrategy = PathDP
	states := make([]*State, 2)
	for k := range states {
		s, err := RandomState(g, DefaultScenario(), rng)
		if err != nil {
			t.Fatal(err)
		}
		states[k] = s
	}
	pl := NewPlanner(params)
	errs := make(chan error, len(states))
	for _, s := range states {
		go func() {
			want, err := Solve(s, params)
			for r := 0; r < 50 && err == nil; r++ {
				var got *Result
				if got, err = pl.Solve(s); err == nil && got.Objective != want.Objective {
					err = fmt.Errorf("round %d: objective %g, stateless %g", r, got.Objective, want.Objective)
				}
			}
			errs <- err
		}()
	}
	for range states {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlannerConcurrentRoundsUnderDrift: two goroutines solve on one
// planner, each moving the measurement overlay before every round, so
// rounds evict and repair cache rows in place while the other goroutine
// reads its Result. Every Result read after its round returned must still
// route each assignment from its busy node to its candidate at exactly its
// response time under one overlay state the round could have seen. Run it
// under -race.
func TestPlannerConcurrentRoundsUnderDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.FatTree(4, 1000)
	graph.RandomizeUtilization(g, 0.2, 0.8, rng)
	s, err := RandomState(g, DefaultScenario(), rng)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	mc := graph.NewMeasuredCosts(g, time.Hour, func() time.Time { return now })
	params := DefaultParams()
	params.PathStrategy = PathDP
	params.Parallelism = 2
	params.Measured = mc
	pl := NewPlanner(params)

	// Observe and the append share mu, so a round that returned read a
	// state already in the list.
	var mu sync.Mutex
	f0, _ := mc.Factors(nil, g.NumEdges())
	states := [][]float64{f0}
	edges := g.Edges()
	errs := make(chan error, 2)
	for k := range 2 {
		go func() {
			orng := rand.New(rand.NewSource(int64(13 + k)))
			var err error
			for r := 0; r < 40 && err == nil; r++ {
				e := edges[orng.Intn(len(edges))]
				mu.Lock()
				mc.Observe(e.U, e.V, time.Duration(1+orng.Intn(30))*time.Millisecond, 0, now)
				f, _ := mc.Factors(nil, g.NumEdges())
				states = append(states, f)
				mu.Unlock()
				var res *Result
				if res, err = pl.Solve(s); err != nil {
					break
				}
				mu.Lock()
				seen := states
				mu.Unlock()
				if !assignmentsPricedByOneState(g, s, res.Assignments, seen) {
					err = fmt.Errorf("round %d: no overlay state prices every assignment's route at its response time", r)
				}
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if st := pl.Cache().Stats(); st.Repaired == 0 {
		t.Fatalf("stats %+v: the overlay drift repaired no row", st)
	}
}

// assignmentsPricedByOneState reports whether some overlay state prices
// every assignment's route, which must run from its busy node to its
// candidate, at exactly its response time.
func assignmentsPricedByOneState(g *graph.Graph, s *State, as []Assignment, states [][]float64) bool {
	for _, a := range as {
		if r := a.Route; r.Src != a.Busy || r.Dst != a.Candidate {
			return false
		}
	}
	for k := len(states) - 1; k >= 0; k-- {
		cost := func(e graph.Edge) float64 {
			return graph.InverseRate(e.UtilizedMbps() * states[k][e.ID])
		}
		ok := true
		for _, a := range as {
			if s.effectiveDataMb(a.Busy)*a.Route.Cost(g, cost) != a.ResponseTimeSec {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func cloneAssignments(as []Assignment) []Assignment {
	out := append([]Assignment(nil), as...)
	for i := range out {
		out[i].Route.Edges = append([]graph.EdgeID(nil), as[i].Route.Edges...)
	}
	return out
}

func sameAssignments(a, b []Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Busy != y.Busy || x.Candidate != y.Candidate ||
			math.Float64bits(x.Amount) != math.Float64bits(y.Amount) ||
			math.Float64bits(x.ResponseTimeSec) != math.Float64bits(y.ResponseTimeSec) ||
			x.Route.Src != y.Route.Src || x.Route.Dst != y.Route.Dst || !slices.Equal(x.Route.Edges, y.Route.Edges) {
			return false
		}
	}
	return true
}
