package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzRouteCacheEquivalence pins the RouteCache's exactness contract: at
// CacheEpsilon = 0 a warm cache — including one that just survived
// arbitrary link-rate drift — must produce bit-identical route tables and
// placement results to a cold computation. Any divergence means the
// revalidation rule kept a row the drift invalidated.
//
// Input layout: n = 4 + data[0]%6 nodes; data[1]%4 picks a ring, line,
// star or RandomConnected graph (density and seed from data[3]); data[2]%8
// is the hop bound, with 5..7 meaning unbounded like 0; then n node
// utilizations, n data volumes, one utilization byte per edge (0 makes
// the edge impassable) and one drift byte per edge (applied when ≡ 0 mod 3).
func FuzzRouteCacheEquivalence(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 95, 30, 92, 20, 40, 60, 50, 0, 80, 0, 0, 0, 40, 50, 60, 70, 80, 90, 3, 90, 6, 9, 12, 33})
	f.Add([]byte{0, 1, 0, 0, 85, 85, 10, 10, 99, 0, 0, 0, 10, 20, 30, 40, 1, 2, 3, 4})
	f.Add([]byte{5, 2, 2, 0, 90, 45, 45, 45, 45, 45, 45, 45, 45, 25, 0, 0, 0, 0, 0, 0, 0, 0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 12, 24, 36, 48, 61, 73, 85, 97, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := 4 + int(data[0]%6)
		var g *graph.Graph
		switch data[1] % 4 {
		case 0:
			g = graph.Ring(n, 100)
		case 1:
			g = graph.Line(n, 100)
		case 2:
			g = graph.Star(n, 100)
		default:
			density := 0.2 + 0.15*float64(data[3]%5)
			g = graph.RandomConnected(n, density, 100, rand.New(rand.NewSource(int64(data[3]))))
		}
		ne := g.NumEdges()
		need := 4 + 2*n + 2*ne
		if len(data) < need {
			t.Skip()
		}
		p := DefaultParams()
		p.PathStrategy = PathDP
		if p.MaxHops = int(data[2] % 8); p.MaxHops > 4 {
			p.MaxHops = 0
		}
		p.CacheEpsilon = 0

		s := NewState(g)
		off := 4
		for i := 0; i < n; i++ {
			s.Util[i] = float64(data[off+i] % 101)
			s.DataMb[i] = float64(data[off+n+i] % 100)
		}
		off += 2 * n
		for e := 0; e < ne; e++ {
			g.SetUtilization(graph.EdgeID(e), float64(data[off+e]%100)/100)
		}

		pl := NewPlanner(p)
		if _, err := pl.Solve(s); err != nil {
			t.Fatal(err)
		}
		// Drift roughly a third of the link rates, then re-solve warm: the
		// cache must invalidate exactly the rows the drift can affect.
		for e := 0; e < ne; e++ {
			if b := data[off+ne+e]; b%3 == 0 {
				g.SetUtilization(graph.EdgeID(e), float64(b%100)/100)
			}
		}
		warm, err := pl.Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(s, p)
		if err != nil {
			t.Fatal(err)
		}

		if warm.Status != cold.Status {
			t.Fatalf("warm status %v != cold %v", warm.Status, cold.Status)
		}
		if (warm.Routes == nil) != (cold.Routes == nil) {
			t.Fatal("route table present on one side only")
		}
		if warm.Routes != nil {
			w, c := warm.Routes.Seconds, cold.Routes.Seconds
			if len(w) != len(c) {
				t.Fatalf("route table has %d warm rows, %d cold", len(w), len(c))
			}
			for bi := range w {
				for cj := range w[bi] {
					if w[bi][cj] != c[bi][cj] {
						t.Fatalf("T_rmin[%d][%d]: warm %g != cold %g", bi, cj, w[bi][cj], c[bi][cj])
					}
					wr, cr := warm.Routes.Route(bi, cj).Edges, cold.Routes.Route(bi, cj).Edges
					if len(wr) != len(cr) {
						t.Fatalf("route[%d][%d]: warm %v != cold %v", bi, cj, wr, cr)
					}
					for k := range wr {
						if wr[k] != cr[k] {
							t.Fatalf("route[%d][%d]: warm %v != cold %v", bi, cj, wr, cr)
						}
					}
				}
			}
		}
		if warm.Status == StatusOptimal && warm.Objective != cold.Objective {
			t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
		}
	})
}
