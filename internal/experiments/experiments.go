// Package experiments regenerates every figure of the paper's evaluation
// (Section V). Each figure has a runner returning a structured result with
// a Table method printing the same rows/series the paper reports, plus the
// ablation studies DESIGN.md calls out. cmd/dustbench drives the runners;
// bench_test.go wraps them in testing.B benchmarks.
//
// Absolute numbers differ from the paper's (its testbed is an enterprise
// switch and a Gurobi cluster; ours is a calibrated simulator and a
// from-scratch solver). The reproduced quantities are the shapes: who
// wins, by what factor, and where the knees fall. EXPERIMENTS.md records
// paper-vs-measured per figure.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Config scales the experiment suite.
type Config struct {
	// Seed makes scenario generation reproducible.
	Seed int64
	// Iterations is the per-point repetition count for the statistical
	// experiments (the paper uses 100–1000).
	Iterations int
	// SimSeconds is the virtual duration of the testbed simulations
	// (Figures 1 and 6).
	SimSeconds int
	// LargeIterations caps repetitions for the expensive large-scale
	// points (Figure 10's 16-k sweeps).
	LargeIterations int
	// Fast trims the most expensive sweep points (the deepest max-hop
	// settings at 16-k) for smoke runs and unit tests.
	Fast bool
	// Parallelism is forwarded to core.Params: the route-table worker
	// pool size (0/1 serial, <0 one worker per CPU). Results are identical
	// at every setting; only wall time changes.
	Parallelism int
	// NMDBShards is the registry stripe count for runners that build a
	// cluster.Manager (0 = cluster default). Rounded up to a power of two.
	NMDBShards int
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{Seed: 1, Iterations: 100, SimSeconds: 600, LargeIterations: 3}
}

// Quick returns a configuration small enough for unit tests and smoke
// runs while keeping every code path exercised.
func Quick() Config {
	return Config{Seed: 1, Iterations: 12, SimSeconds: 60, LargeIterations: 1, Fast: true}
}

// scenario draws a random fat-tree NMDB snapshot.
func scenario(k int, cfg core.ScenarioConfig, rng *rand.Rand) (*core.State, error) {
	g := graph.FatTree(k, 1000)
	return core.RandomState(g, cfg, rng)
}

// solveElapsed runs a placement solve and returns its total wall time
// (controllable-route computation plus optimization).
func solveElapsed(s *core.State, p core.Params) (*core.Result, time.Duration, error) {
	res, err := core.Solve(s, p)
	if err != nil {
		return nil, 0, err
	}
	return res, res.RouteDuration + res.SolveDuration, nil
}

// table formats rows with a header into an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func fdur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
