package lp_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lp"
	"repro/internal/verify"
)

// fuzzTol is the agreement tolerance of the fuzz invariants; inputs are
// byte-derived and small, so absolute slack is fine.
const fuzzTol = 1e-6

// subEpsSupply is what supply byte 255 decodes to: an amount under the
// solver's 1e-9 tolerance that must still either ship or be reported
// stranded.
const subEpsSupply = 1e-10

// transportFromBytes decodes a small well-formed transportation problem
// from fuzz data: 1+data[0]%4 sources and 1+data[1]%4 sinks, then one byte
// per supply, demand and lane cost, row-major. Supplies and demands are
// byte/10 in [0, 25.5], except that supply byte 255 is subEpsSupply. Costs
// are byte/8 in [0, ~32): byte 0 is a free lane (tying the balancing dummy
// source's zero cost), other multiples of 7 forbid the lane (+Inf, about
// one lane in seven).
func transportFromBytes(data []byte) (lp.TransportProblem, bool) {
	var p lp.TransportProblem
	if len(data) < 2 {
		return p, false
	}
	m, n := 1+int(data[0]%4), 1+int(data[1]%4)
	need := 2 + m + n + m*n
	if len(data) < need {
		return p, false
	}
	p.Supply = make([]float64, m)
	p.Demand = make([]float64, n)
	p.Cost = make([][]float64, m)
	for i := 0; i < m; i++ {
		p.Supply[i] = float64(data[2+i]) / 10
		if data[2+i] == 255 {
			p.Supply[i] = subEpsSupply
		}
	}
	for j := 0; j < n; j++ {
		p.Demand[j] = float64(data[2+m+j]) / 10
	}
	for i := 0; i < m; i++ {
		p.Cost[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			b := data[2+m+n+i*n+j]
			if b != 0 && b%7 == 0 {
				p.Cost[i][j] = math.Inf(1)
			} else {
				p.Cost[i][j] = float64(b) / 8
			}
		}
	}
	return p, true
}

// referenceVerdicts solves p with verify.MinCostFlow and returns its
// feasibility verdict and objective, plus the exact verdict. The reference
// ships within an absolute 1e-9, so it calls a stranded sub-eps supply
// feasible. Every other decoded amount lies on the 0.1 grid, so raising
// the sub-eps supplies to 1e-4 (at most 4e-4 in total) flips no cut's
// verdict while lifting them into the reference's view: that run gives the
// exact verdict. The two differ only when the unroutable amount is sub-eps,
// and then the solver may report either: infeasible when the amount lands
// on a sub-eps source's own forbidden lane (held to that source's relative
// tolerance), optimal when it lands on a larger source's (within its
// tolerance).
func referenceVerdicts(p lp.TransportProblem) (feasible, exact bool, obj float64) {
	feasible, obj = verify.MinCostFlow(p.Supply, p.Demand, p.Cost)
	raised := append([]float64(nil), p.Supply...)
	subEps := false
	for i, s := range raised {
		if s == subEpsSupply {
			raised[i] = 1e-4
			subEps = true
		}
	}
	exact = feasible
	if subEps {
		exact, _ = verify.MinCostFlow(raised, p.Demand, p.Cost)
	}
	return feasible, exact, obj
}

// strandedSource returns a source with positive supply and every lane
// forbidden, or -1.
func strandedSource(p lp.TransportProblem) int {
	for i, s := range p.Supply {
		if s == 0 {
			continue
		}
		open := false
		for _, c := range p.Cost[i] {
			open = open || !math.IsInf(c, 1)
		}
		if !open {
			return i
		}
	}
	return -1
}

// Seeds of FuzzSolveTransport; testdata/fuzz holds more. The last three
// (and the post-delta-* corpus files) are the problems a one-site supply,
// demand or cost change produced from earlier seeds, kept because they
// once exposed re-flow bugs in code the cold solve shares.
var solveTransportSeeds = [][]byte{
	{1, 1, 10, 20, 15, 15, 1, 2, 3, 4},
	{0, 0, 5, 200, 7}, // forbidden single lane (7%7==0)
	{2, 1, 9, 9, 9, 90, 90, 1, 2, 3, 4, 5, 6},
	{1, 0, 200, 200, 10, 8, 9}, // supply exceeds demand
	{1, 1, 10, 9, 15, 15, 1, 2, 3, 4},
	{2, 1, 9, 9, 9, 90, 200, 1, 2, 3, 4, 5, 6},
	{1, 2, 30, 12, 15, 15, 15, 1, 2, 33, 4, 5, 6},
}

// TestTransportFuzzSeedsDecode guards FuzzSolveTransport against dead
// seeds: every seed and checked-in corpus entry must decode to a problem,
// or the target skips it without a word.
func TestTransportFuzzSeedsDecode(t *testing.T) {
	check := func(name string, data []byte) {
		if _, ok := transportFromBytes(data); !ok {
			t.Errorf("%s: does not decode", name)
		}
	}
	for k, data := range solveTransportSeeds {
		check("FuzzSolveTransport seed "+strconv.Itoa(k), data)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSolveTransport", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		check(f, readCorpusBytes(t, f))
	}
}

// readCorpusBytes parses a one-value `go test fuzz v1` corpus file holding
// a []byte.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// FuzzSolveTransport hardens the transportation solver: any well-formed
// problem must solve without panicking, every optimal solution must
// satisfy the primal constraints and reproduce its own objective with
// finite duals, and both the feasibility verdict and the objective must
// agree with the independent successive-shortest-path reference — where
// a sub-eps supply is involved, in the direction its tolerance allows.
// A workspace that solved another problem first must return the fresh
// solve's solution bit for bit (checkWorkspaceReuse).
func FuzzSolveTransport(f *testing.F) {
	for _, seed := range solveTransportSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := transportFromBytes(data)
		if !ok {
			t.Skip()
		}
		sol, err := lp.SolveTransport(p)
		if err != nil {
			t.Fatalf("well-formed problem errored: %v", err)
		}
		checkWorkspaceReuse(t, p, sol)
		feasible, exact, refObj := referenceVerdicts(p)
		optimal := sol.Status == lp.StatusOptimal
		// Where exact == feasible the verdict is unique; in between, both
		// are within tolerance.
		if exact && !optimal || optimal && !feasible {
			t.Fatalf("reference feasible=%v (exactly %v), solver status %v", feasible, exact, sol.Status)
		}
		if i := strandedSource(p); i >= 0 && optimal {
			t.Fatalf("source %d has no open lane but the solve is optimal", i)
		}
		if !optimal {
			return
		}
		m, n := len(p.Supply), len(p.Demand)
		obj := 0.0
		colUsed := make([]float64, n)
		for i := 0; i < m; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				fl := sol.Flow[i][j]
				if fl < 0 {
					t.Fatalf("negative flow %g at (%d,%d)", fl, i, j)
				}
				if math.IsInf(p.Cost[i][j], 1) {
					if fl != 0 {
						t.Fatalf("flow %g on forbidden lane (%d,%d)", fl, i, j)
					}
					continue
				}
				rowSum += fl
				colUsed[j] += fl
				obj += fl * p.Cost[i][j]
			}
			if math.Abs(rowSum-p.Supply[i]) > fuzzTol {
				t.Fatalf("source %d ships %g of supply %g", i, rowSum, p.Supply[i])
			}
		}
		for j := 0; j < n; j++ {
			if colUsed[j] > p.Demand[j]+fuzzTol {
				t.Fatalf("sink %d receives %g over capacity %g", j, colUsed[j], p.Demand[j])
			}
		}
		if math.Abs(obj-sol.Objective) > fuzzTol*math.Max(1, math.Abs(obj)) {
			t.Fatalf("reported objective %g != recomputed %g", sol.Objective, obj)
		}
		if math.Abs(obj-refObj) > fuzzTol*math.Max(1, math.Abs(obj)) {
			t.Fatalf("solver objective %g != reference %g", obj, refObj)
		}
		for i, u := range sol.DualSupply {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("non-finite supply dual %g at %d", u, i)
			}
		}
		for j, v := range sol.DualDemand {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite demand dual %g at %d", v, j)
			}
		}
	})
}

// checkWorkspaceReuse solves p on an lp.Transport that first solved a
// differently shaped or differently prepared problem, one workspace per
// predecessor, and requires every field of the result to equal the fresh
// solve's bit for bit. The predecessors cover the same shape, a shrink, a
// grow, and a switch between the aliased (clean) and owned (forbidden or
// rescaled) cost paths in both directions.
func checkWorkspaceReuse(t *testing.T, p lp.TransportProblem, fresh *lp.TransportSolution) {
	t.Helper()
	m, n := len(p.Supply), len(p.Demand)
	reshape := func(rows, cols int, cost func(i, j int) float64) lp.TransportProblem {
		q := lp.TransportProblem{Supply: make([]float64, rows), Demand: make([]float64, cols), Cost: make([][]float64, rows)}
		for i := range q.Cost {
			q.Supply[i] = 1 + float64(i)
			if i < m {
				q.Supply[i] = p.Supply[i]
			}
			q.Cost[i] = make([]float64, cols)
			for j := range q.Cost[i] {
				q.Cost[i][j] = cost(i, j)
			}
		}
		for j := range q.Demand {
			q.Demand[j] = 30
			if j < n {
				q.Demand[j] = p.Demand[j]
			}
		}
		return q
	}
	orig := func(i, j int) float64 {
		if i < m && j < n {
			return p.Cost[i][j]
		}
		return float64(i + j)
	}
	preds := map[string]lp.TransportProblem{
		"same problem": p,
		"shrink":       reshape(m+1, n+1, orig),
		"grow":         reshape(max(1, m-1), max(1, n-1), orig),
		"one lane forbidden": reshape(m, n, func(i, j int) float64 {
			if i == 0 && j == 0 {
				return math.Inf(1)
			}
			return p.Cost[i][j]
		}),
		"no lane forbidden": reshape(m, n, func(i, j int) float64 {
			if math.IsInf(p.Cost[i][j], 1) {
				return 40
			}
			return p.Cost[i][j]
		}),
		"costs past 1e100": reshape(m, n, func(i, j int) float64 { return 1e101 * (1 + p.Cost[i][j]) }),
	}
	for name, pred := range preds {
		var w lp.Transport
		if _, err := w.Solve(pred); err != nil {
			t.Fatalf("%s: predecessor errored: %v", name, err)
		}
		got, err := w.Solve(p)
		if err != nil {
			t.Fatalf("%s: reused workspace errored: %v", name, err)
		}
		if diff := solutionDiff(got, fresh); diff != "" {
			t.Fatalf("after %s, the reused workspace differs from a fresh solve: %s", name, diff)
		}
	}
}

// solutionDiff describes the first field in which a and b differ, comparing
// floats by their bits; "" when they are identical.
func solutionDiff(a, b *lp.TransportSolution) string {
	sameFloats := func(x, y []float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for k := range x {
			if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("iterations %d vs %d", a.Iterations, b.Iterations)
	case len(a.Flow) != len(b.Flow) || (a.Flow == nil) != (b.Flow == nil):
		return fmt.Sprintf("flow rows %d vs %d", len(a.Flow), len(b.Flow))
	case !sameFloats(a.DualSupply, b.DualSupply):
		return fmt.Sprintf("supply duals %v vs %v", a.DualSupply, b.DualSupply)
	case !sameFloats(a.DualDemand, b.DualDemand):
		return fmt.Sprintf("demand duals %v vs %v", a.DualDemand, b.DualDemand)
	}
	for i := range a.Flow {
		if !sameFloats(a.Flow[i], b.Flow[i]) {
			return fmt.Sprintf("flow row %d: %v vs %v", i, a.Flow[i], b.Flow[i])
		}
	}
	return ""
}

// modelFromBytes decodes a small LP/MIP from fuzz data: up to 4 variables
// (signed bounds and objectives in eighths, occasionally unbounded above,
// occasionally integer — integers always get finite boxes so
// branch-and-bound terminates) and up to 4 constraints with LE/GE/EQ
// senses.
func modelFromBytes(data []byte) (*lp.Model, []lp.VarID, bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	nv, nc := 1+int(data[0]%4), int(data[1]%4)
	sense := lp.Minimize
	if data[2]%2 == 1 {
		sense = lp.Maximize
	}
	need := 3 + nv*4 + nc*(nv+2)
	if len(data) < need {
		return nil, nil, false
	}
	signed := func(b byte) float64 { return float64(int(b)-128) / 8 }

	m := lp.NewModel(sense)
	vars := make([]lp.VarID, nv)
	off := 3
	for i := 0; i < nv; i++ {
		lo := signed(data[off])
		width := float64(data[off+1]) / 8
		obj := signed(data[off+2])
		kind := data[off+3]
		hi := lo + width
		integer := kind%4 == 0
		if !integer && kind%5 == 0 {
			hi = math.Inf(1)
		}
		if integer {
			vars[i] = m.AddIntVar("x", lo, hi, obj)
		} else {
			vars[i] = m.AddVar("x", lo, hi, obj)
		}
		off += 4
	}
	for k := 0; k < nc; k++ {
		terms := make([]lp.Term, 0, nv)
		for i := 0; i < nv; i++ {
			if c := signed(data[off+i]); c != 0 {
				terms = append(terms, lp.Term{Var: vars[i], Coeff: c})
			}
		}
		rel := lp.Rel(data[off+nv] % 3)
		rhs := signed(data[off+nv+1]) * 2
		if len(terms) > 0 {
			m.AddConstraint("c", terms, rel, rhs)
		}
		off += nv + 2
	}
	return m, vars, true
}

// FuzzSimplexModel hardens the general solver (two-phase simplex plus
// branch-and-bound): no panic on any model, and every claimed optimum must
// respect variable bounds, integrality, all constraints, and its own
// objective value.
func FuzzSimplexModel(f *testing.F) {
	f.Add([]byte{2, 1, 0, 128, 80, 120, 1, 128, 80, 136, 1, 16, 8, 0, 100})
	f.Add([]byte{1, 0, 1, 120, 40, 130, 2})
	f.Add([]byte{3, 2, 0, 128, 80, 120, 0, 128, 16, 136, 1, 128, 80, 130, 3, 8, 16, 24, 1, 100, 24, 16, 8, 2, 90})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, vars, ok := modelFromBytes(data)
		if !ok {
			t.Skip()
		}
		sol, err := m.Solve()
		if err != nil {
			t.Skip() // iteration limit: a numerical give-up, not a wrong answer
		}
		if sol.Status != lp.StatusOptimal {
			return
		}
		for i, v := range vars {
			lo, hi := m.VarBounds(v)
			x := sol.Value(v)
			if x < lo-fuzzTol || x > hi+fuzzTol {
				t.Fatalf("var %d value %g outside [%g, %g]", i, x, lo, hi)
			}
		}
		// Objective must be reproducible from the values. The model does not
		// expose its objective coefficients, so re-derive the check from the
		// decoded bytes.
		signed := func(b byte) float64 { return float64(int(b)-128) / 8 }
		nv := 1 + int(data[0]%4)
		obj := 0.0
		for i := 0; i < nv; i++ {
			coeff := signed(data[3+i*4+2])
			obj += coeff * sol.Value(vars[i])
			if data[3+i*4+3]%4 == 0 {
				if x := sol.Value(vars[i]); math.Abs(x-math.Round(x)) > fuzzTol {
					t.Fatalf("integer var %d has fractional value %g", i, x)
				}
			}
		}
		if math.Abs(obj-sol.Objective) > fuzzTol*math.Max(1, math.Abs(obj)) {
			t.Fatalf("reported objective %g != recomputed %g", sol.Objective, obj)
		}
		// Constraint satisfaction, re-derived the same way.
		nc := int(data[1] % 4)
		off := 3 + nv*4
		for k := 0; k < nc; k++ {
			lhs, any := 0.0, false
			for i := 0; i < nv; i++ {
				if c := signed(data[off+i]); c != 0 {
					lhs += c * sol.Value(vars[i])
					any = true
				}
			}
			rel := lp.Rel(data[off+nv] % 3)
			rhs := signed(data[off+nv+1]) * 2
			if any {
				slack := fuzzTol * math.Max(1, math.Abs(rhs))
				switch rel {
				case lp.LE:
					if lhs > rhs+slack {
						t.Fatalf("constraint %d: %g > %g", k, lhs, rhs)
					}
				case lp.GE:
					if lhs < rhs-slack {
						t.Fatalf("constraint %d: %g < %g", k, lhs, rhs)
					}
				case lp.EQ:
					if math.Abs(lhs-rhs) > slack {
						t.Fatalf("constraint %d: %g != %g", k, lhs, rhs)
					}
				}
			}
			off += nv + 2
		}
	})
}
