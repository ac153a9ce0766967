package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// TransportProblem is the min-cost transportation problem the DUST
// placement LP reduces to: ship Supply[i] units out of each source i into
// sinks with capacity Demand[j], paying Cost[i][j] per unit, minimizing
// total cost. A Cost of +Inf forbids the lane (e.g. no path within the
// max-hop bound).
//
// Constraints: Σ_j x_ij = Supply[i] (each busy node fully offloads, paper
// Eq. 3b) and Σ_i x_ij <= Demand[j] (candidate spare capacity, Eq. 3a).
type TransportProblem struct {
	Supply []float64
	Demand []float64
	Cost   [][]float64
}

// TransportSolution is the result of SolveTransport. One returned by
// (*Transport).Solve belongs to that workspace until its next Solve.
type TransportSolution struct {
	Status    Status
	Objective float64
	// Flow[i][j] is the optimal shipment from source i to sink j.
	Flow [][]float64
	// Iterations counts MODI pivot steps.
	Iterations int
	// DualSupply[i] and DualDemand[j] are the optimal dual values (the
	// MODI potentials u_i and v_j, gauged so the balancing dummy source's
	// potential is zero). −DualDemand[j] is sink j's shadow price: the
	// objective improvement per extra unit of capacity at j (exactly 0
	// for sinks with slack capacity).
	DualSupply, DualDemand []float64
}

var errMalformed = errors.New("lp: malformed transportation problem")

// Transport is a reusable transportation solver: a workspace holding the
// balanced problem, the tableau and the solution arrays of its last solve.
// Solves of the same shape (m sources × n sinks) reuse all of it, so a
// caller that solves every round — the core Planner — allocates nothing
// per solve; a new shape regrows the arrays. Every solve still starts cold
// from the problem alone, so a reused workspace returns exactly, bit for
// bit, what a fresh one would.
//
// The zero value is ready to use. A Transport is not safe for concurrent
// use: callers that share one serialise their solves.
type Transport struct {
	prep transportPrep
	tab  *transportTableau
	sol  TransportSolution

	rows     [][]float64 // prep.cost's row headers, len m+1
	costs    []float64   // owned scaled costs, len m·n, when rows cannot alias the problem's
	zeros    []float64   // the dummy row's costs, len n, never written
	forb     []bool      // owned forbidden-lane mask, len m·n
	flowRows [][]float64 // sol.Flow, rows backed by flows
	flows    []float64   // len m·n
	duals    []float64   // sol.DualSupply then sol.DualDemand, len m+n
	sorted   []cell      // finish's scratch: one row's basic cells in column order
}

// transportPrep is the validated, balanced, Big-M'd form of a
// TransportProblem. Its slices may alias the problem's, read-only.
type transportPrep struct {
	m, n  int // original shape (rows excluding the dummy)
	dummy int // row index of the balancing dummy source (after the real rows)
	// tol is the amount tolerance: eps, shrunk to eps·s for a smallest
	// positive supply s < 1 so that a sub-eps supply is never lost in it.
	tol    float64
	scale  float64
	supply []float64   // balanced: len m+1, the dummy's entry its slack
	demand []float64   // len n: the problem's own Demand
	cost   [][]float64 // balanced scaled costs: len m+1 rows
	// forb is the original problem's forbidden lanes, len m*n; nil when no
	// lane is forbidden.
	forb []bool
}

// prepare validates and balances the problem into w.prep. A non-nil early
// solution means the solve is already decided (trivial infeasibility)
// before any pivoting.
//
// Without forbidden lanes or a rescale (the fleet case) the real cost rows
// and the demand are the problem's own, read-only; otherwise the scaled,
// Big-M'd costs are written into one owned m·n block.
func (w *Transport) prepare(p TransportProblem) (*TransportSolution, error) {
	m, n := len(p.Supply), len(p.Demand)
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("%w: %d sources, %d sinks", errMalformed, m, n)
	}
	if len(p.Cost) != m {
		return nil, fmt.Errorf("%w: cost has %d rows, want %d", errMalformed, len(p.Cost), m)
	}
	totalSupply, totalDemand := 0.0, 0.0
	maxCost := 0.0
	forbidden := false
	tol := eps
	for i := range p.Supply {
		if p.Supply[i] < 0 {
			return nil, fmt.Errorf("%w: negative supply %g at source %d", errMalformed, p.Supply[i], i)
		}
		if len(p.Cost[i]) != n {
			return nil, fmt.Errorf("%w: cost row %d has %d entries, want %d", errMalformed, i, len(p.Cost[i]), n)
		}
		totalSupply += p.Supply[i]
		if s := p.Supply[i]; s > 0 && eps*s < tol {
			tol = eps * s
		}
		for _, c := range p.Cost[i] {
			if math.IsInf(c, 1) {
				forbidden = true
			} else if c > maxCost {
				maxCost = c
			}
		}
	}
	for j := range p.Demand {
		if p.Demand[j] < 0 {
			return nil, fmt.Errorf("%w: negative demand %g at sink %d", errMalformed, p.Demand[j], j)
		}
		totalDemand += p.Demand[j]
	}
	if totalSupply > totalDemand+tol {
		return &TransportSolution{Status: StatusInfeasible}, nil
	}

	// Balance: a dummy source absorbs unused sink capacity at zero cost,
	// turning the <= sink constraints into equalities. Forbidden lanes get
	// a Big-M cost; positive flow on one after optimization means the real
	// problem is infeasible.
	//
	// The Big-M must dominate every finite cost without itself losing
	// float64 headroom: with extreme cost spreads the classical
	// (maxCost+1)·(m+n)·1e3 construction overflows toward +Inf and poisons
	// the MODI potentials (and with them the exported duals). Past 1e100
	// every finite cost is divided by maxCost — a positive rescaling that
	// preserves the optimal basis exactly — so the scaled range is [0, 1]
	// and the Big-M stays modest. The duals are scaled back on exit; the
	// objective is recomputed from the original costs either way.
	scale := 1.0
	bigM := (maxCost + 1) * float64(m+n) * 1e3
	if maxCost > 1e100 {
		scale = maxCost
		bigM = 2 * float64(m+n) * 1e3
	}
	supply := grow(w.prep.supply, m+1)
	copy(supply, p.Supply)
	supply[m] = totalDemand - totalSupply
	w.zeros = grow(w.zeros, n)
	w.rows = grow(w.rows, m+1)
	var forb []bool
	if !forbidden && scale == 1 {
		copy(w.rows, p.Cost)
	} else {
		w.costs = grow(w.costs, m*n)
		w.forb = grow(w.forb, m*n)
		forb = w.forb
		clear(forb)
		for i := 0; i < m; i++ {
			row := w.costs[i*n : (i+1)*n : (i+1)*n]
			for j, c := range p.Cost[i] {
				if math.IsInf(c, 1) {
					row[j] = bigM
					forb[i*n+j] = true
				} else {
					row[j] = c / scale
				}
			}
			w.rows[i] = row
		}
	}
	w.rows[m] = w.zeros
	w.prep = transportPrep{m: m, n: n, dummy: m, tol: tol, scale: scale, supply: supply, demand: p.Demand, cost: w.rows, forb: forb}
	return nil, nil
}

// grow returns s resized to length n, reusing its array when it is large
// enough. Elements past the old length are whatever the array held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SolveTransport solves the transportation problem with the classical
// network method: a least-cost initial basic feasible solution followed by
// MODI (u-v) optimality iterations on the basis spanning tree. It detects
// infeasibility (total supply exceeding total sink capacity, or forbidden
// lanes making some supply unroutable).
//
// The start ships the real sources first, least cost first, and lets the
// balancing dummy source take only the sink capacity they leave idle. Its
// cost is one scan per source row plus a min-heap of per-row offers — no
// sort over the m·n cells. Mixing the dummy's zero-cost lanes into the same
// cost order instead parks the slack on the cheapest sinks before any real
// source ships, and MODI then spends most of its pivots moving it back: on
// the 160-node fleet160 benchmark shape (54 sources × 106 sinks) that start
// took 79 pivots, the dummy-last one takes 1.
//
// SolveTransport is a solve on a fresh workspace; callers that solve
// repeatedly keep a Transport instead.
func SolveTransport(p TransportProblem) (*TransportSolution, error) {
	return new(Transport).Solve(p)
}

// Solve is SolveTransport on the workspace's storage. The problem is only
// read. The returned solution, its Flow rows and its duals belong to the
// workspace: they are valid until the next call to Solve.
func (w *Transport) Solve(p TransportProblem) (*TransportSolution, error) {
	early, err := w.prepare(p)
	if early != nil || err != nil {
		return early, err
	}
	t := w.tableau()
	t.initialBasis()
	if err := t.optimize(); err != nil {
		return nil, err
	}
	return w.finish(t, p), nil
}

// tableau returns the workspace's tableau loaded with w.prep: the previous
// one emptied when the shape matches, a new one otherwise.
func (w *Transport) tableau() *transportTableau {
	prep := &w.prep
	if t := w.tab; t != nil && t.m == len(prep.supply) && t.n == len(prep.demand) {
		t.reset(prep)
		return t
	}
	w.tab = newTransportTableau(prep)
	return w.tab
}

// finish turns an optimized tableau into the exported solution: the
// forbidden-flow feasibility audit, the dual gauge fix, and the objective
// recomputed from the original costs. Flow is zero off the basis, so the
// audit and the output walk the m+n−1 basic cells, each row's in column
// order — the order, and so the float sums, of a walk over the m·n grid.
func (w *Transport) finish(t *transportTableau, p TransportProblem) *TransportSolution {
	prep := &w.prep
	m, n := prep.m, prep.n
	forbidden := func(i, j int) bool { return i != prep.dummy && prep.forb != nil && prep.forb[i*n+j] }
	for i := 0; i < m; i++ {
		// Flow beyond roundoff on a forbidden lane means the real problem
		// is infeasible. The tolerance shrinks with the source's supply —
		// a tiny supply forced through a Big-M lane would otherwise fall
		// under the absolute output cutoff, be zeroed, and report a
		// silently truncated placement as optimal. A zero-supply source is
		// the opposite case: it cannot legitimately ship anything, so any
		// flow parked on its lanes is pure pivot roundoff, not
		// infeasibility.
		if p.Supply[i] == 0 {
			continue
		}
		tol := eps * math.Min(1, p.Supply[i])
		for _, c := range t.rowBasics[i] {
			if forbidden(c.i, c.j) && t.flowAt(c.i, c.j) > tol {
				return &TransportSolution{Status: StatusInfeasible, Iterations: t.iterations}
			}
		}
	}

	// Degenerate (zero-flow) basic cells on forbidden lanes would inject
	// the Big-M into the potentials and thus the exported duals; swap them
	// out of the basis tree before reading the duals off it.
	t.evictForbidden(forbidden)

	if len(w.flowRows) != m || len(w.duals) != m+n {
		w.flows = make([]float64, m*n)
		w.flowRows = make([][]float64, m)
		for i := range w.flowRows {
			w.flowRows[i] = w.flows[i*n : (i+1)*n : (i+1)*n]
		}
		w.duals = make([]float64, m+n)
	} else {
		clear(w.flows)
	}
	u, v := t.potentials()
	// Normalize the dual gauge so the dummy source's potential is zero:
	// slack sinks (fed by the dummy at cost 0) then get dual exactly 0 and
	// -v_j is directly sink j's shadow price.
	shift := u[t.dummy]
	sol := &w.sol
	*sol = TransportSolution{
		Status:     StatusOptimal,
		Flow:       w.flowRows,
		Iterations: t.iterations,
		DualSupply: w.duals[:m:m],
		DualDemand: w.duals[m:],
	}
	for i := 0; i < m; i++ {
		sol.DualSupply[i] = (u[i] - shift) * prep.scale
	}
	for j := 0; j < n; j++ {
		sol.DualDemand[j] = (v[j] + shift) * prep.scale
	}
	obj := 0.0
	for i := 0; i < m; i++ {
		cs := append(w.sorted[:0], t.rowBasics[i]...)
		slices.SortFunc(cs, func(a, b cell) int { return a.j - b.j })
		w.sorted = cs
		for _, c := range cs {
			f := t.flowAt(i, c.j)
			if f < eps || forbidden(i, c.j) {
				continue // forbidden residues are ≤ tol by the check above
			}
			sol.Flow[i][c.j] = f
			if f > 0 {
				obj += f * p.Cost[i][c.j]
			}
		}
	}
	sol.Objective = obj
	return sol
}

// transportTableau holds the balanced problem and its basis spanning tree.
// Flows and basis membership live in dense row-major arrays (flow is zero
// on every nonbasic cell), so the MODI pricing scan and the output
// assembly are straight array sweeps with no hashing.
//
// The tree is a graph on m+n nodes: node k < m is row k, node m+j is
// column j. The scratch slices below are sized once per tableau, so
// neither pricing nor pivoting allocates.
type transportTableau struct {
	m, n       int     // rows (the real sources and the dummy) and columns
	dummy      int     // row index of the balancing dummy source
	tol        float64 // amount tolerance (transportPrep.tol)
	supply     []float64
	demand     []float64
	cost       [][]float64
	flow       []float64 // len m*n; nonzero only on basic cells
	basic      []bool    // len m*n
	nbasic     int
	rowBasics  [][]cell // basic cells per source row
	colBasics  [][]cell // basic cells per sink column
	iterations int

	u, v   []float64 // potentials' output, overwritten by the next call
	rem    []float64 // per node: remaining supply (rows) or demand (columns)
	seen   []bool    // per node: visited by the current traversal
	prev   []cell    // per node: tree cell the cycle search reached it by
	parent []int     // per node: union-find forest
	deg    []int     // per node: connect's component size
	nodes  []int     // traversal stack or queue, capacity m+n
	path   []cell    // cyclePath's result
	offers offerHeap // leastCost's per-row offers
	best   []offer   // per node: connect's cheapest outgoing cell
}

type cell struct{ i, j int }

func newTransportTableau(prep *transportPrep) *transportTableau {
	m, n := len(prep.supply), len(prep.demand)
	nodes := m + n
	floats := make([]float64, m*n+2*nodes)
	bools := make([]bool, m*n+nodes)
	ints := make([]int, 3*nodes)
	// A spanning tree averages two cells per node, so each node's basic
	// list starts with room for two; busier nodes grow their own.
	const perNode = 2
	cells := make([]cell, (2+perNode)*nodes)
	adj := make([][]cell, nodes)
	for k := range adj {
		adj[k] = cells[perNode*k : perNode*k : perNode*(k+1)]
	}
	cells = cells[perNode*nodes:]
	return &transportTableau{
		m: m, n: n, dummy: prep.dummy, tol: prep.tol,
		supply: prep.supply, demand: prep.demand, cost: prep.cost,
		flow:      floats[:m*n],
		basic:     bools[:m*n],
		rowBasics: adj[:m],
		colBasics: adj[m:],
		u:         floats[m*n : m*n+m],
		v:         floats[m*n+m : m*n+nodes],
		rem:       floats[m*n+nodes:],
		seen:      bools[m*n:],
		prev:      cells[:nodes],
		path:      cells[nodes:nodes],
		parent:    ints[:nodes],
		deg:       ints[nodes : 2*nodes],
		nodes:     ints[2*nodes : 2*nodes],
	}
}

// reset empties the basis for a new solve of the same shape on prep. Flow
// and basis membership are nonzero only on basic cells, so clearing those
// and zeroing the potentials restores the state newTransportTableau starts
// from; the traversal scratch is overwritten before every read.
func (t *transportTableau) reset(prep *transportPrep) {
	for k, cs := range t.rowBasics {
		for _, c := range cs {
			i := t.idx(c)
			t.basic[i] = false
			t.flow[i] = 0
		}
		t.rowBasics[k] = cs[:0]
	}
	for k, cs := range t.colBasics {
		t.colBasics[k] = cs[:0]
	}
	clear(t.u)
	clear(t.v)
	t.nbasic, t.iterations = 0, 0
	t.dummy, t.tol = prep.dummy, prep.tol
	t.supply, t.demand, t.cost = prep.supply, prep.demand, prep.cost
}

func (t *transportTableau) idx(c cell) int { return c.i*t.n + c.j }

func (t *transportTableau) addBasic(c cell, f float64) {
	k := t.idx(c)
	t.basic[k] = true
	t.flow[k] = f
	t.nbasic++
	t.rowBasics[c.i] = append(t.rowBasics[c.i], c)
	t.colBasics[c.j] = append(t.colBasics[c.j], c)
}

func (t *transportTableau) removeBasic(c cell) {
	k := t.idx(c)
	t.basic[k] = false
	t.flow[k] = 0
	t.nbasic--
	t.rowBasics[c.i] = removeCell(t.rowBasics[c.i], c)
	t.colBasics[c.j] = removeCell(t.colBasics[c.j], c)
}

func removeCell(s []cell, c cell) []cell {
	for i := range s {
		if s[i] == c {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func (t *transportTableau) flowAt(i, j int) float64 { return t.flow[i*t.n+j] }

// resetForest makes every node its own union-find tree.
func (t *transportTableau) resetForest() {
	for k := range t.parent {
		t.parent[k] = k
	}
}

// find returns node x's union-find root, halving the path as it goes.
func (t *transportTableau) find(x int) int {
	p := t.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union joins the trees of nodes a and b, reporting false when they were
// already one tree.
func (t *transportTableau) union(a, b int) bool {
	ra, rb := t.find(a), t.find(b)
	if ra == rb {
		return false
	}
	t.parent[ra] = rb
	return true
}

// initialBasis builds the cold start: the least-cost method over the real
// rows, then the dummy row on whatever sink capacity they left, then
// zero-flow padding until the basis is a spanning tree with exactly m+n-1
// cells.
//
// The dummy goes last because its lanes all cost 0: in one cost order with
// the real cells it would claim the cheapest sinks before any real source
// shipped, and MODI would spend most of its pivots moving that slack back.
func (t *transportTableau) initialBasis() {
	remS, remD := t.rem[:t.m], t.rem[t.m:]
	copy(remS, t.supply)
	copy(remD, t.demand)
	t.leastCost(remS, remD, t.addBasic)
	d := t.dummy
	for j := 0; j < t.n && remS[d] > 0; j++ {
		if remD[j] > 0 {
			f := math.Min(remS[d], remD[j])
			t.addBasic(cell{d, j}, f)
			remS[d] -= f
			remD[j] -= f
		}
	}
	t.connect(nil)
}

// leastCost runs the least-cost method over the real rows: ship as much as
// possible on the cheapest lane whose row and column both have something
// left, ties broken by (row, column), until no such lane remains. The
// cutoffs are exact, not eps: a sub-eps supply must still ship so the
// forbidden-lane audit can see where it went (the output zeroes sub-eps
// flows either way). Forbidden lanes carry the Big-M cost, so they come
// last. Each shipment is handed to ship.
//
// The order is that of a sort over the real cells, without the sort: every
// row with supply left offers its cheapest live column to a min-heap keyed
// (cost, row, column), and a row is re-scanned only when the column it
// offered has run out. Liveness only ever shrinks, so an offer's key never
// exceeds its row's current cheapest, and a popped offer whose column is
// still live is the cheapest live cell overall — the next cell the sorted
// walk would ship on. The work is one O(n) scan per row plus one per
// exhausted offer, against the sort's O(m·n·log(m·n)).
func (t *transportTableau) leastCost(remS, remD []float64, ship func(c cell, f float64)) {
	h := t.offers[:0]
	for i := 0; i < t.m; i++ {
		if i != t.dummy && remS[i] > 0 {
			if o, ok := t.cheapestLive(i, remD); ok {
				h.push(o)
			}
		}
	}
	for len(h) > 0 {
		o := h.pop()
		if remD[o.j] > 0 {
			f := math.Min(remS[o.i], remD[o.j])
			ship(cell{o.i, o.j}, f)
			remS[o.i] -= f
			remD[o.j] -= f
			if remS[o.i] <= 0 {
				continue // row done (min(s, d) subtracts to exactly 0)
			}
		}
		// The offered column has run out: offer the row's next cheapest.
		if next, ok := t.cheapestLive(o.i, remD); ok {
			h.push(next)
		}
	}
	t.offers = h
}

// cheapestLive returns row i's cheapest cell among the columns with demand
// left, the lowest column on ties; ok is false when every column is spent.
func (t *transportTableau) cheapestLive(i int, remD []float64) (o offer, ok bool) {
	row := t.cost[i]
	o = offer{i: i, j: -1}
	for j, d := range remD {
		if d > 0 && (o.j < 0 || row[j] < o.c) {
			o.c, o.j = row[j], j
		}
	}
	return o, o.j >= 0
}

// offer is a candidate cell with its cost, ordered by (cost, row, column).
type offer struct {
	c    float64
	i, j int
}

func (a offer) less(b offer) bool {
	if a.c != b.c {
		return a.c < b.c
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// offerHeap is a binary min-heap of offers; container/heap's interface
// indirection is avoided on the cold-start path.
type offerHeap []offer

func (h *offerHeap) push(o offer) {
	*h = append(*h, o)
	s := *h
	for k := len(s) - 1; k > 0; {
		up := (k - 1) / 2
		if !s[k].less(s[up]) {
			break
		}
		s[k], s[up] = s[up], s[k]
		k = up
	}
}

func (h *offerHeap) pop() offer {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for k := 0; ; {
		small, l, r := k, 2*k+1, 2*k+2
		if l < len(s) && s[l].less(s[small]) {
			small = l
		}
		if r < len(s) && s[r].less(s[small]) {
			small = r
		}
		if small == k {
			break
		}
		s[k], s[small] = s[small], s[k]
		k = small
	}
	*h = s
	return top
}

// connect adds zero-flow basic cells until the basis spans every node it
// can reach over allowed cells (all cells when allowed is nil). Each round
// gives every tree component its cheapest allowed cell to another
// component under the strict order (cost, row, column) — Borůvka's rule —
// so the added cells are exactly those Kruskal's walk over the sorted
// cells would add, without the sort. A round only scans cells with an end
// outside the largest component, so a nearly spanning basis costs a few
// row and column scans. Components joinable only over disallowed cells
// stay apart.
func (t *transportTableau) connect(allowed func(i, j int) bool) {
	nodes := t.m + t.n
	if t.best == nil {
		t.best = make([]offer, nodes)
	}
	for t.nbasic < nodes-1 {
		t.resetForest()
		for _, cs := range t.rowBasics {
			for _, c := range cs {
				t.union(c.i, t.m+c.j)
			}
		}
		// Flatten the forest so each node's root is one load, and find the
		// largest component.
		size := t.deg
		clear(size)
		main := 0
		for k := range t.parent {
			r := t.find(k)
			t.parent[k] = r
			if size[r]++; size[r] > size[main] {
				main = r
			}
		}
		root := t.parent
		best := t.best
		for k := range best {
			best[k].j = -1
		}
		consider := func(i, j int) {
			ri, rj := root[i], root[t.m+j]
			if ri == rj || (allowed != nil && !allowed(i, j)) {
				return
			}
			o := offer{t.cost[i][j], i, j}
			if best[ri].j < 0 || o.less(best[ri]) {
				best[ri] = o
			}
			if best[rj].j < 0 || o.less(best[rj]) {
				best[rj] = o
			}
		}
		for i := 0; i < t.m; i++ {
			if root[i] != main {
				for j := 0; j < t.n; j++ {
					consider(i, j)
				}
			}
		}
		for j := 0; j < t.n; j++ {
			if root[t.m+j] != main {
				for i := 0; i < t.m; i++ {
					if root[i] == main {
						consider(i, j)
					}
				}
			}
		}
		added := false
		for _, o := range best {
			if o.j >= 0 && t.union(o.i, t.m+o.j) {
				t.addBasic(cell{o.i, o.j}, 0)
				added = true
			}
		}
		if !added {
			return
		}
	}
}

// evictForbidden removes basic cells on forbidden lanes (necessarily at
// roundoff-level flow once the caller has ruled the problem feasible) and
// reconnects the basis tree with the cheapest allowed cells, so the Big-M
// placeholder cost never reaches the potentials. Components only reachable
// over forbidden lanes stay disconnected; potentials handles forests, and
// no dual-feasibility constraint crosses such a cut (every crossing lane
// is forbidden, and +Inf reduced costs hold vacuously).
func (t *transportTableau) evictForbidden(forbidden func(i, j int) bool) {
	var evict []cell
	for _, cs := range t.rowBasics {
		for _, c := range cs {
			if forbidden(c.i, c.j) {
				evict = append(evict, c)
			}
		}
	}
	if len(evict) == 0 {
		return
	}
	for _, c := range evict {
		t.removeBasic(c)
	}
	t.connect(func(i, j int) bool { return !forbidden(i, j) })
}

// potentials computes the MODI dual values u (rows) and v (cols) from the
// basis tree with u = 0 at each component's lowest row. The slices are the
// tableau's scratch: the next call overwrites them.
func (t *transportTableau) potentials() (u, v []float64) {
	u, v = t.u, t.v
	seen := t.seen
	clear(seen)
	stack := t.nodes[:0]
	for start := 0; start < t.m; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		u[start] = 0
		stack = append(stack, start)
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if k < t.m {
				for _, c := range t.rowBasics[k] {
					if col := t.m + c.j; !seen[col] {
						seen[col] = true
						v[c.j] = t.cost[c.i][c.j] - u[c.i]
						stack = append(stack, col)
					}
				}
			} else {
				for _, c := range t.colBasics[k-t.m] {
					if !seen[c.i] {
						seen[c.i] = true
						u[c.i] = t.cost[c.i][c.j] - v[c.j]
						stack = append(stack, c.i)
					}
				}
			}
		}
	}
	t.nodes = stack[:0]
	return u, v
}

// cyclePath finds the unique path in the basis tree from row-node i to
// col-node j, returned as the alternating cell sequence. Adding the
// entering cell (i,j) to this path closes the pivot cycle. The result is
// the tableau's scratch, valid until the next call.
func (t *transportTableau) cyclePath(i, j int) []cell {
	seen := t.seen
	clear(seen)
	queue := t.nodes[:0]
	seen[i] = true
	queue = append(queue, i)
	target := t.m + j
	for head := 0; head < len(queue) && !seen[target]; head++ {
		cur := queue[head]
		if cur < t.m {
			for _, c := range t.rowBasics[cur] {
				if nk := t.m + c.j; !seen[nk] {
					seen[nk] = true
					t.prev[nk] = c
					queue = append(queue, nk)
				}
			}
		} else {
			for _, c := range t.colBasics[cur-t.m] {
				if !seen[c.i] {
					seen[c.i] = true
					t.prev[c.i] = c
					queue = append(queue, c.i)
				}
			}
		}
	}
	t.nodes = queue[:0]
	if !seen[target] {
		return nil // disconnected basis — should not happen with a spanning tree
	}
	// Walk back from target to source collecting cells.
	path := t.path[:0]
	for cur := target; cur != i; {
		c := t.prev[cur]
		path = append(path, c)
		if cur < t.m {
			cur = t.m + c.j
		} else {
			cur = c.i
		}
	}
	slices.Reverse(path)
	t.path = path
	return path
}

// pivot brings enter into the basis: it closes the cycle through the tree,
// shifts the blocking flow theta around it, and swaps the blocking (leave)
// cell out. Returns the moved flow (0 for a degenerate pivot) or an error
// if the tree lost connectivity.
func (t *transportTableau) pivot(enter cell) (float64, error) {
	path := t.cyclePath(enter.i, enter.j)
	if path == nil {
		return 0, fmt.Errorf("lp: transport basis lost connectivity at cell (%d,%d)", enter.i, enter.j)
	}
	// Cycle: enter (+), then alternate -, +, -, ... along path.
	theta := math.Inf(1)
	leave := cell{-1, -1}
	for k, c := range path {
		if k%2 == 0 { // minus position
			f := t.flow[t.idx(c)]
			if f < theta || (f == theta && (leave.i < 0 || lessCell(c, leave))) {
				theta = f
				leave = c
			}
		}
	}
	for k, c := range path {
		if k%2 == 0 {
			t.flow[t.idx(c)] -= theta
		} else {
			t.flow[t.idx(c)] += theta
		}
	}
	t.removeBasic(leave)
	t.addBasic(enter, theta)
	t.iterations++
	return theta, nil
}

// optimize runs MODI iterations to optimality.
func (t *transportTableau) optimize() error {
	maxIter := 200*(t.m+t.n) + 10000
	stall := 0
	for {
		u, v := t.potentials()
		enter := cell{-1, -1}
		useBland := stall >= blandTrigger
		best := -eps
		n := t.n
		v = v[:n]
	scan:
		for i := 0; i < t.m; i++ {
			ui := u[i]
			row := t.cost[i][:n]
			bas := t.basic[i*n : (i+1)*n]
			for j, c := range row {
				if bas[j] {
					continue
				}
				r := c - ui - v[j]
				if useBland {
					if r < -eps {
						enter = cell{i, j}
						break scan
					}
				} else if r < best {
					best = r
					enter = cell{i, j}
				}
			}
		}
		if enter.i < 0 {
			return nil // optimal
		}

		theta, err := t.pivot(enter)
		if err != nil {
			return err
		}
		if theta <= eps {
			stall++
		} else {
			stall = 0
		}
		if t.iterations > maxIter {
			return ErrIterationLimit
		}
	}
}

func lessCell(a, b cell) bool {
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}
