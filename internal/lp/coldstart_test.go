package lp

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// prepareTransport runs the prepare step of a fresh workspace.
func prepareTransport(p TransportProblem) (*transportPrep, *TransportSolution, error) {
	w := new(Transport)
	early, err := w.prepare(p)
	return &w.prep, early, err
}

// shipment is one step of the least-cost method: flow f placed on cell c.
type shipment struct {
	c cell
	f float64
}

// sortedLeastCost is the textbook least-cost method over the real rows,
// the oracle for leastCost: sort every real cell by (cost, row, column)
// and walk the list once, shipping min(remaining supply, remaining demand)
// wherever both are positive (exact cutoffs, as in the solver).
func sortedLeastCost(prep *transportPrep) []shipment {
	type costCell struct {
		c float64
		cell
	}
	var all []costCell
	for i := 0; i < prep.m; i++ {
		for j := 0; j < prep.n; j++ {
			all = append(all, costCell{prep.cost[i][j], cell{i, j}})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].c != all[b].c {
			return all[a].c < all[b].c
		}
		return lessCell(all[a].cell, all[b].cell)
	})
	remS := append([]float64(nil), prep.supply...)
	remD := append([]float64(nil), prep.demand...)
	var out []shipment
	for _, cc := range all {
		i, j := cc.i, cc.j
		if remS[i] <= 0 || remD[j] <= 0 {
			continue
		}
		f := math.Min(remS[i], remD[j])
		out = append(out, shipment{cc.cell, f})
		remS[i] -= f
		remD[j] -= f
	}
	return out
}

// kruskalPadding is the oracle for connect: starting from the basis's
// positive-flow cells, walk every cell in (cost, row, column) order and
// keep each one that joins two components.
func kruskalPadding(t *transportTableau) map[cell]bool {
	type costCell struct {
		c float64
		cell
	}
	var all []costCell
	for i := 0; i < t.m; i++ {
		for j := 0; j < t.n; j++ {
			all = append(all, costCell{t.cost[i][j], cell{i, j}})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].c != all[b].c {
			return all[a].c < all[b].c
		}
		return lessCell(all[a].cell, all[b].cell)
	})
	t.resetForest()
	for k, f := range t.flow {
		if f > 0 {
			t.union(k/t.n, t.m+k%t.n)
		}
	}
	pad := map[cell]bool{}
	for _, cc := range all {
		if t.flowAt(cc.i, cc.j) == 0 && t.union(cc.i, t.m+cc.j) {
			pad[cc.cell] = true
		}
	}
	return pad
}

// coldStartCase draws one random instance of a named family; every family
// keeps total supply within total demand so the start is always built.
type coldStartCase struct {
	name string
	gen  func(rng *rand.Rand) TransportProblem
}

func coldStartCases() []coldStartCase {
	shape := func(rng *rand.Rand) (int, int) { return 1 + rng.Intn(7), 1 + rng.Intn(9) }
	// build fills a problem of the given shape: supply(i) per source,
	// sink capacities scaled so they cover the supply with slack·total to
	// spare, and cost(i, j) per lane.
	build := func(rng *rand.Rand, m, n int, supply func(i int) float64, slack float64, cost func(i, j int) float64) TransportProblem {
		p := TransportProblem{Supply: make([]float64, m), Demand: make([]float64, n), Cost: make([][]float64, m)}
		total := 0.0
		for i := range p.Supply {
			p.Supply[i] = supply(i)
			total += p.Supply[i]
			p.Cost[i] = make([]float64, n)
			for j := range p.Cost[i] {
				p.Cost[i][j] = cost(i, j)
			}
		}
		w := make([]float64, n)
		sum := 0.0
		for j := range w {
			w[j] = 0.1 + rng.Float64()
			sum += w[j]
		}
		for j := range p.Demand {
			p.Demand[j] = total * (1 + slack) * w[j] / sum
		}
		return p
	}
	randCost := func(rng *rand.Rand, forbidP float64) func(i, j int) float64 {
		return func(i, j int) float64 {
			if rng.Float64() < forbidP {
				return math.Inf(1)
			}
			return math.Round(rng.Float64()*20) / 2 // half-units: plenty of ties
		}
	}
	return []coldStartCase{
		{"random", func(rng *rand.Rand) TransportProblem {
			m, n := shape(rng)
			return build(rng, m, n, func(int) float64 { return 1 + 20*rng.Float64() }, rng.Float64(), randCost(rng, 0.05))
		}},
		{"forbidden-heavy", func(rng *rand.Rand) TransportProblem {
			m, n := shape(rng)
			return build(rng, m, n, func(int) float64 { return 1 + 20*rng.Float64() }, rng.Float64(), randCost(rng, 0.6))
		}},
		{"zero-supply rows", func(rng *rand.Rand) TransportProblem {
			m, n := shape(rng)
			return build(rng, m, n, func(int) float64 {
				if rng.Intn(2) == 0 {
					return 0
				}
				return 1 + 20*rng.Float64()
			}, rng.Float64(), randCost(rng, 0.1))
		}},
		{"sub-eps supplies", func(rng *rand.Rand) TransportProblem {
			m, n := shape(rng)
			return build(rng, m, n, func(int) float64 {
				if rng.Intn(2) == 0 {
					return eps * rng.Float64() / 10
				}
				return 1 + 20*rng.Float64()
			}, rng.Float64(), randCost(rng, 0.3))
		}},
		{"all-equal costs", func(rng *rand.Rand) TransportProblem {
			m, n := shape(rng)
			c := float64(rng.Intn(3))
			return build(rng, m, n, func(int) float64 { return 1 + 20*rng.Float64() }, rng.Float64(), func(int, int) float64 { return c })
		}},
		{"exactly balanced", func(rng *rand.Rand) TransportProblem {
			// Integer supplies dealt out to integer capacities: the totals
			// agree exactly, so the dummy's supply is exactly 0.
			m, n := shape(rng)
			p := TransportProblem{Supply: make([]float64, m), Demand: make([]float64, n), Cost: make([][]float64, m)}
			cost := randCost(rng, 0.1)
			for i := range p.Supply {
				p.Supply[i] = float64(rng.Intn(30))
				for k := 0; k < int(p.Supply[i]); k++ {
					p.Demand[rng.Intn(n)]++
				}
				p.Cost[i] = make([]float64, n)
				for j := range p.Cost[i] {
					p.Cost[i][j] = cost(i, j)
				}
			}
			return p
		}},
		{"single source", func(rng *rand.Rand) TransportProblem {
			_, n := shape(rng)
			return build(rng, 1, n, func(int) float64 { return 1 + 20*rng.Float64() }, rng.Float64(), randCost(rng, 0.2))
		}},
		{"single sink", func(rng *rand.Rand) TransportProblem {
			m, _ := shape(rng)
			return build(rng, m, 1, func(int) float64 { return 1 + 20*rng.Float64() }, rng.Float64(), randCost(rng, 0.2))
		}},
	}
}

// TestColdStartProperties checks the cold start on random instances of
// every family: the real-row phase ships on exactly the cells, in exactly
// the order and amounts, of the sort-based least-cost reference; the dummy
// row takes only the capacity left once every real row is satisfied; and
// the padded basis is a spanning tree of m+n−1 cells with nonnegative
// flows balancing every row and column to roundoff, padded with exactly
// the cells a Kruskal walk over the sorted cells picks.
func TestColdStartProperties(t *testing.T) {
	for _, tc := range coldStartCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			for trial := 0; trial < 300; trial++ {
				p := tc.gen(rng)
				if err := checkColdStart(p); err != nil {
					t.Fatalf("trial %d: %v\nproblem %+v", trial, err, p)
				}
			}
		})
	}
}

func checkColdStart(p TransportProblem) error {
	prep, early, err := prepareTransport(p)
	if err != nil || early != nil {
		return fmt.Errorf("prepare: err %v, early %+v", err, early)
	}
	if prep.dummy != prep.m {
		return fmt.Errorf("dummy row %d, want %d", prep.dummy, prep.m)
	}

	// Real-row phase against the oracle, step by step.
	t := newTransportTableau(prep)
	remS := append([]float64(nil), prep.supply...)
	remD := append([]float64(nil), prep.demand...)
	var got []shipment
	t.leastCost(remS, remD, func(c cell, f float64) { got = append(got, shipment{c, f}) })
	want := sortedLeastCost(prep)
	if len(got) != len(want) {
		return fmt.Errorf("least cost shipped %d times, reference %d: %v vs %v", len(got), len(want), got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("shipment %d: %+v, reference %+v", k, got[k], want[k])
		}
	}

	t = newTransportTableau(prep)
	t.initialBasis()
	rows, cols := t.m, t.n
	if t.nbasic != rows+cols-1 {
		return fmt.Errorf("%d basic cells, want %d", t.nbasic, rows+cols-1)
	}
	t.resetForest()
	listed := 0
	for i, cs := range t.rowBasics {
		for _, c := range cs {
			listed++
			if c.i != i || !t.basic[t.idx(c)] {
				return fmt.Errorf("row list %d holds %v, basic=%v", i, c, t.basic[t.idx(c)])
			}
			if !t.union(c.i, rows+c.j) {
				return fmt.Errorf("basis has a cycle through %v", c)
			}
		}
	}
	if listed != t.nbasic {
		return fmt.Errorf("row lists hold %d cells, nbasic %d", listed, t.nbasic)
	}
	// Every shipment is positive, so the zero-flow basic cells are the
	// padding.
	pad := map[cell]bool{}
	for k, b := range t.basic {
		if b && t.flow[k] == 0 {
			pad[cell{k / cols, k % cols}] = true
		}
	}
	if want := kruskalPadding(t); !maps.Equal(pad, want) {
		return fmt.Errorf("padding %v, Kruskal reference %v", pad, want)
	}

	tol := func(x float64) float64 { return 1e-12 * (1 + math.Abs(x)) }
	realShipped := make([]float64, cols)
	for i := 0; i < rows; i++ {
		sum := 0.0
		for j := 0; j < cols; j++ {
			f := t.flowAt(i, j)
			if f < 0 || (f != 0 && !t.basic[i*cols+j]) {
				return fmt.Errorf("flow %g at (%d,%d), basic=%v", f, i, j, t.basic[i*cols+j])
			}
			sum += f
			if i != t.dummy {
				realShipped[j] += f
			}
		}
		if math.Abs(sum-prep.supply[i]) > tol(prep.supply[i]) {
			return fmt.Errorf("row %d ships %g of supply %g", i, sum, prep.supply[i])
		}
	}
	for j := 0; j < cols; j++ {
		left := prep.demand[j] - realShipped[j]
		if d := t.flowAt(t.dummy, j); math.Abs(d-left) > tol(prep.demand[j]) {
			return fmt.Errorf("dummy ships %g to column %d, real rows left %g", d, j, left)
		}
	}
	return nil
}

// randomTransport draws a feasible random instance with occasional
// forbidden lanes.
func randomTransport(rng *rand.Rand, m, n int) TransportProblem {
	p := TransportProblem{
		Supply: make([]float64, m),
		Demand: make([]float64, n),
		Cost:   make([][]float64, m),
	}
	for i := range p.Supply {
		p.Supply[i] = 1 + 20*rng.Float64()
		p.Cost[i] = make([]float64, n)
		for j := range p.Cost[i] {
			if rng.Float64() < 0.05 {
				p.Cost[i][j] = math.Inf(1)
			} else {
				p.Cost[i][j] = rng.Float64() * 100
			}
		}
	}
	for j := range p.Demand {
		p.Demand[j] = 5 + 25*rng.Float64()
	}
	return p
}

// TestPivotWorkDoesNotAllocate: the per-pivot work — potentials, the
// pricing scan and the cycle search — runs on the tableau's scratch. On an
// optimal tableau optimize is exactly one potentials pass plus one
// pricing scan, so together with a cycle search it must not allocate.
func TestPivotWorkDoesNotAllocate(t *testing.T) {
	prep, early, err := prepareTransport(randomTransport(rand.New(rand.NewSource(3)), 12, 20))
	if err != nil || early != nil {
		t.Fatalf("prepare: err %v, early %+v", err, early)
	}
	tab := newTransportTableau(prep)
	tab.initialBasis()
	if err := tab.optimize(); err != nil {
		t.Fatal(err)
	}
	enter := cell{-1, -1}
	for k, b := range tab.basic {
		if !b {
			enter = cell{k / tab.n, k % tab.n}
			break
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tab.optimize(); err != nil {
			t.Fatal(err)
		}
		if tab.cyclePath(enter.i, enter.j) == nil {
			t.Fatal("no cycle through the basis tree")
		}
	})
	if allocs != 0 {
		t.Fatalf("pricing and cycle search allocated %.0f times per pivot", allocs)
	}
}
