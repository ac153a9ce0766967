package lp

import (
	"math"
	"slices"
)

// DeltaCell names a lane (source I, sink J) whose cost changed since the
// basis was captured.
type DeltaCell struct{ I, J int }

// TransportDelta describes how a TransportProblem differs from the one a
// TransportBasis was captured from. SupplyRows and DemandCols are advisory
// (the tree re-flow recomputes every flow from the current values either
// way); CostCells is a contract: it must name every lane whose cost
// changed, or the repaired solution may be silently suboptimal. Structural
// forces the warm fallback — set it when the problem's shape changed
// (client added/removed, classification flip) or when the delta is too
// messy to enumerate.
type TransportDelta struct {
	SupplyRows []int
	DemandCols []int
	CostCells  []DeltaCell
	Structural bool
}

// Empty reports whether the delta declares no change at all.
func (d TransportDelta) Empty() bool {
	return !d.Structural && len(d.SupplyRows) == 0 && len(d.DemandCols) == 0 && len(d.CostCells) == 0
}

// maxRepairPivots bounds the pivots a repair may spend before conceding
// the delta was not as local as declared and falling back to the warm
// solve. Generous for a genuine single-client delta (a handful of pivots)
// while still far below a full re-optimization.
func maxRepairPivots(m, n int) int { return m + n + 16 }

// RepairTransport re-optimizes the transportation problem p after a small
// declared delta, reusing the previous optimal basis with delta-local
// work instead of a full MODI solve:
//
//   - Supply/demand perturbations re-flow the unchanged basis tree in
//     O(m+n); if some tree flow goes negative, bounded dual-simplex pivots
//     (leave = most negative flow, enter = min reduced cost across the
//     tree cut) restore primal feasibility while preserving dual
//     feasibility — no full pricing scan ever runs.
//   - Cost perturbations are localized by replaying the capture-time
//     potentials from the costs stored in the basis: rows/columns whose
//     duals moved form a dirty set, and only dirty rows × columns (plus
//     the declared CostCells) are priced for violations. Cells outside the
//     dirty set provably retain their nonnegative reduced costs from the
//     prior optimum.
//
// Whenever the preconditions fail — structural delta, missing or
// incompatible basis, prev not optimal, a combined supply+cost delta that
// defeats both repair modes, or the pivot budget running out — the call
// falls back to SolveTransportWarm(p, basis), so the answer is always
// exactly the problem's optimum; only the work spent differs. Repaired is
// true on the returned solution iff the cheap path was taken end to end.
func RepairTransport(p TransportProblem, prev *TransportSolution, basis *TransportBasis, delta TransportDelta) (*TransportSolution, *TransportBasis, error) {
	prep, early, err := prepareTransport(p)
	if early != nil || err != nil {
		return early, nil, err
	}
	if delta.Structural || prev == nil || prev.Status != StatusOptimal ||
		basis == nil || len(basis.costs) != len(basis.cells) ||
		basis.scale != prep.scale || !basis.compatibleWith(prep) {
		return SolveTransportWarm(p, basis)
	}
	for _, dc := range delta.CostCells {
		if dc.I < 0 || dc.I >= prep.m || dc.J < 0 || dc.J >= prep.n {
			return SolveTransportWarm(p, basis)
		}
	}

	t := newTransportTableau(prep)
	if !t.warmStart(basis.cells, true) {
		return SolveTransportWarm(p, basis)
	}

	// Replay the capture-time duals from the stored basic-cell costs over
	// the same tree: identical traversal, so a node's dual differs from
	// the live one iff a basic cost on its tree path changed. The exact
	// (bitwise) comparison is deliberately conservative — a false "dirty"
	// costs a few extra pricings, a false "clean" would cost correctness.
	stored := make([]float64, len(t.flow))
	for k, c := range basis.cells {
		stored[t.idx(c)] = basis.costs[k]
	}
	uOld, vOld := make([]float64, t.m), make([]float64, t.n)
	t.treePotentials(uOld, vOld, stored)
	u, v := t.potentials()
	dirtyRow := make([]bool, t.m)
	dirtyCol := make([]bool, t.n)
	anyDirty := false
	for i := range u {
		if u[i] != uOld[i] {
			dirtyRow[i] = true
			anyDirty = true
		}
	}
	for j := range v {
		if v[j] != vOld[j] {
			dirtyCol[j] = true
			anyDirty = true
		}
	}

	negative := false
	for _, cs := range t.rowBasics {
		for _, c := range cs {
			if t.flow[t.idx(c)] < -t.tol {
				negative = true
			}
		}
	}

	if negative {
		// Dual simplex needs dual feasibility as its invariant. A changed
		// basic cost (dirty duals) or a violating changed lane breaks it,
		// and mixing the two repair modes buys nothing over the warm
		// solve — concede the combined case.
		if anyDirty {
			return SolveTransportWarm(p, basis)
		}
		for _, dc := range delta.CostCells {
			if t.basic[dc.I*t.n+dc.J] {
				continue // basic cost change implies dirty; unreachable
			}
			if t.cost[dc.I][dc.J]-u[dc.I]-v[dc.J] < -eps {
				return SolveTransportWarm(p, basis)
			}
		}
		if !t.dualSimplex() {
			return SolveTransportWarm(p, basis)
		}
		return finishTransport(t, p, prep, true, true)
	}

	if anyDirty || len(delta.CostCells) > 0 {
		if !t.primalRepair(dirtyRow, dirtyCol, delta.CostCells) {
			return SolveTransportWarm(p, basis)
		}
	}
	return finishTransport(t, p, prep, true, true)
}

// dualSimplex restores primal feasibility of the (dual-feasible) basis:
// each iteration drives the most negative tree flow to exactly zero by
// pushing flow around the cycle closed by the best entering cell across
// the tree cut. Returns false when the pivot budget runs out or an
// invariant breaks, signalling the caller to fall back.
func (t *transportTableau) dualSimplex() bool {
	budget := maxRepairPivots(t.m, t.n)
	inA := make([]bool, t.m+t.n)
	queue := make([]int, 0, t.m+t.n)
	for {
		leave := cell{-1, -1}
		worst := -t.tol
		for _, cs := range t.rowBasics {
			for _, c := range cs {
				f := t.flow[t.idx(c)]
				if f < worst || (f == worst && leave.i >= 0 && lessCell(c, leave)) {
					worst = f
					leave = c
				}
			}
		}
		if leave.i < 0 {
			return true // primal feasible; dual feasibility was preserved throughout
		}
		if budget == 0 {
			return false
		}
		budget--

		// Cut the tree at leave: BFS from leave's row node without using
		// the leave edge marks side A (rows and cols reachable from the
		// row side). Side B holds leave's col. Entering candidates are the
		// nonbasic cells crossing the cut as (row in B, col in A): that
		// orientation places leave at a plus position of the entering
		// cycle, so pushing flow raises leave's negative flow to zero.
		clear(inA)
		inA[leave.i] = true
		queue = append(queue[:0], leave.i)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			if cur < t.m {
				for _, c := range t.rowBasics[cur] {
					if c == leave {
						continue
					}
					if nk := t.m + c.j; !inA[nk] {
						inA[nk] = true
						queue = append(queue, nk)
					}
				}
			} else {
				for _, c := range t.colBasics[cur-t.m] {
					if c == leave {
						continue
					}
					if !inA[c.i] {
						inA[c.i] = true
						queue = append(queue, c.i)
					}
				}
			}
		}

		// Min reduced cost among the crossing nonbasic cells keeps every
		// other crossing cell's reduced cost nonnegative after the dual
		// update — dual feasibility is maintained, which is what makes the
		// repair exact without a global pricing scan.
		u, v := t.potentials()
		enter := cell{-1, -1}
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if inA[i] {
				continue
			}
			row := t.cost[i]
			bas := t.basic[i*t.n:]
			for j := 0; j < t.n; j++ {
				if !inA[t.m+j] || bas[j] {
					continue
				}
				r := row[j] - u[i] - v[j]
				if r < best || (r == best && (enter.i < 0 || lessCell(cell{i, j}, enter))) {
					best = r
					enter = cell{i, j}
				}
			}
		}
		if enter.i < 0 {
			// No crossing cell at all: the negative flow cannot be
			// rerouted (degenerate disconnection) — concede.
			return false
		}

		path := t.cyclePath(enter.i, enter.j)
		pos := -1
		for k, c := range path {
			if c == leave {
				pos = k
				break
			}
		}
		if pos < 0 || pos%2 != 1 {
			return false // orientation invariant broken — concede, never guess
		}
		tpush := -t.flow[t.idx(leave)]
		for k, c := range path {
			if k%2 == 0 {
				t.flow[t.idx(c)] -= tpush
			} else {
				t.flow[t.idx(c)] += tpush // leave lands on exactly 0: f + (-f)
			}
		}
		t.removeBasic(leave)
		t.addBasic(enter, tpush)
		t.iterations++
	}
}

// primalRepair restores optimality after cost perturbations by pricing
// only the dirty rows/columns and the declared changed cells. Each primal
// pivot may move more duals; the dirty sets grow to match, so the scan
// stays sound. Returns false on budget exhaustion or a degeneracy stall,
// signalling the caller to fall back.
func (t *transportTableau) primalRepair(dirtyRow, dirtyCol []bool, changed []DeltaCell) bool {
	budget := maxRepairPivots(t.m, t.n)
	stall := 0
	u, v := t.potentials()
	// potentials reuses its output slices, so the duals before each pivot
	// are kept here to diff against.
	prevU, prevV := slices.Clone(u), slices.Clone(v)
	for {
		enter := cell{-1, -1}
		best := -eps
		price := func(i, j int) {
			if t.basic[i*t.n+j] {
				return
			}
			if r := t.cost[i][j] - u[i] - v[j]; r < best {
				best = r
				enter = cell{i, j}
			}
		}
		for i := 0; i < t.m; i++ {
			if !dirtyRow[i] {
				continue
			}
			for j := 0; j < t.n; j++ {
				price(i, j)
			}
		}
		for j := 0; j < t.n; j++ {
			if !dirtyCol[j] {
				continue
			}
			for i := 0; i < t.m; i++ {
				if !dirtyRow[i] {
					price(i, j)
				}
			}
		}
		for _, dc := range changed {
			if !dirtyRow[dc.I] && !dirtyCol[dc.J] {
				price(dc.I, dc.J)
			}
		}
		if enter.i < 0 {
			return true // no violation anywhere it could exist — optimal
		}
		if budget == 0 {
			return false
		}
		budget--

		theta, err := t.pivot(enter)
		if err != nil {
			return false
		}
		if theta <= eps {
			if stall++; stall >= blandTrigger {
				return false // cycling risk: the warm fallback has Bland's rule
			}
		} else {
			stall = 0
		}

		u, v = t.potentials()
		for i := range u {
			if u[i] != prevU[i] {
				dirtyRow[i] = true
			}
		}
		for j := range v {
			if v[j] != prevV[j] {
				dirtyCol[j] = true
			}
		}
		copy(prevU, u)
		copy(prevV, v)
	}
}
