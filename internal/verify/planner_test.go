package verify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// checkPlannerAgainstStateless drives 200 seeded random instances through
// short drift sequences and solves every step twice: once through a
// Planner, whose route cache carries rows from round to round, and once
// through the stateless core.SolveClassified. Status and objective must
// agree at every step, and every planner result must pass the invariant
// checker. drift mutates the state between steps; salt separates the
// drift streams of the callers.
func checkPlannerAgainstStateless(t *testing.T, salt int64, drift func(*rand.Rand, *core.State)) {
	t.Helper()
	const trials = 200
	const steps = 6
	for seed := int64(0); seed < trials; seed++ {
		inst, err := RandomInstance(seed, 6+int(seed%18))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		params := inst.Params
		params.Solver = core.SolverTransport
		planner := core.NewPlanner(params)

		rng := rand.New(rand.NewSource(seed ^ salt))
		for step := 0; step < steps; step++ {
			cls, err := core.Classify(inst.State, params.Thresholds)
			if err != nil {
				t.Fatalf("seed %d step %d: classify: %v", seed, step, err)
			}
			rp, err := planner.SolveClassified(inst.State, cls)
			if err != nil {
				t.Fatalf("seed %d step %d: planner solve: %v", seed, step, err)
			}
			rs, err := core.SolveClassified(inst.State, cls, params)
			if err != nil {
				t.Fatalf("seed %d step %d: stateless solve: %v", seed, step, err)
			}
			if rp.Status != rs.Status {
				t.Fatalf("seed %d step %d: planner status %v, stateless %v", seed, step, rp.Status, rs.Status)
			}
			tol := 1e-6 * (1 + math.Abs(rs.Objective))
			if math.Abs(rp.Objective-rs.Objective) > tol {
				t.Fatalf("seed %d step %d: planner objective %g, stateless %g (Δ=%g)",
					seed, step, rp.Objective, rs.Objective, rp.Objective-rs.Objective)
			}
			if rp.Status == core.StatusOptimal {
				if err := CheckResult(inst.State, rp, core.SolverTransport); err != nil {
					t.Fatalf("seed %d step %d: planner result failed checker: %v", seed, step, err)
				}
			}
			drift(rng, inst.State)
		}
	}
}

// driftNode moves node i: usually a small in-band utilization wiggle,
// sometimes a data-volume change (a cost-row change) and sometimes a jump
// across the thresholds (a role flip).
func driftNode(rng *rand.Rand, s *core.State, i int) {
	switch rng.Intn(6) {
	case 0:
		s.Util[i] = 100 * rng.Float64()
	case 1:
		s.DataMb[i] = 1 + 30*rng.Float64()
	default:
		u := s.Util[i] + 4*rng.Float64() - 2
		s.Util[i] = math.Max(0, math.Min(100, u))
	}
}

// TestWarmSolveEquivalence checks a warm Planner, one that has solved the
// earlier steps, against a cold stateless solve when one to three nodes
// move per step.
func TestWarmSolveEquivalence(t *testing.T) {
	checkPlannerAgainstStateless(t, 0x5eed, func(rng *rand.Rand, s *core.State) {
		for k := 0; k < 1+rng.Intn(3); k++ {
			driftNode(rng, s, rng.Intn(len(s.Util)))
		}
	})
}

// TestRepairSolveEquivalence checks the Planner against a cold stateless
// solve when exactly one node moves per step: the steady-state round
// shape, where the route cache reuses every row it can.
func TestRepairSolveEquivalence(t *testing.T) {
	checkPlannerAgainstStateless(t, 0x12ea12, func(rng *rand.Rand, s *core.State) {
		driftNode(rng, s, rng.Intn(len(s.Util)))
	})
}
