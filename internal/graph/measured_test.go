package graph

import (
	"math"
	"testing"
	"time"
)

func measuredFixture() (*Graph, EdgeID) {
	g := New(3)
	id := g.AddEdge(0, 1, 1000)
	g.AddEdge(1, 2, 1000)
	return g, id
}

var mt0 = time.Unix(1_700_000_000, 0)

func TestMeasuredCostsBaselineAndCongestion(t *testing.T) {
	g, id := measuredFixture()
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return mt0 })

	if f := mc.RateFactor(id); f != 1 {
		t.Fatalf("unmeasured factor = %v, want 1", f)
	}
	// First observation sets the baseline: factor stays 1.
	mc.Observe(0, 1, 2*time.Millisecond, 0, mt0)
	if f := mc.RateFactor(id); f != 1 {
		t.Fatalf("at-baseline factor = %v, want 1", f)
	}
	// RTT grows 10×: the edge looks 10× slower.
	mc.Observe(0, 1, 20*time.Millisecond, 0, mt0)
	if f := mc.RateFactor(id); math.Abs(f-0.1) > 1e-12 {
		t.Fatalf("congested factor = %v, want 0.1", f)
	}
	// Recovery: back at the baseline, full rate again.
	mc.Observe(0, 1, 2*time.Millisecond, 0, mt0)
	if f := mc.RateFactor(id); f != 1 {
		t.Fatalf("recovered factor = %v, want 1", f)
	}
	// A new lower floor re-baselines.
	mc.Observe(0, 1, time.Millisecond, 0, mt0)
	mc.Observe(0, 1, 2*time.Millisecond, 0, mt0)
	if f := mc.RateFactor(id); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("re-baselined factor = %v, want 0.5", f)
	}
}

func TestMeasuredCostsLossHandling(t *testing.T) {
	g, id := measuredFixture()
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return mt0 })
	mc.Observe(0, 1, 2*time.Millisecond, 0.2, mt0)
	if f := mc.RateFactor(id); math.Abs(f-0.8) > 1e-12 {
		t.Fatalf("20%% loss factor = %v, want 0.8", f)
	}
	// Loss at the cut makes the edge impassable, not merely slow.
	mc.Observe(0, 1, 2*time.Millisecond, DefaultLossCut, mt0)
	if f := mc.RateFactor(id); f != 0 {
		t.Fatalf("loss-cut factor = %v, want 0", f)
	}
	// Loss-only observation (RTT 0: no completed round trip) still
	// registers the loss without inventing an RTT ratio.
	g2, id2 := measuredFixture()
	mc2 := NewMeasuredCosts(g2, time.Minute, func() time.Time { return mt0 })
	mc2.Observe(0, 1, 0, 1, mt0)
	if f := mc2.RateFactor(id2); f != 0 {
		t.Fatalf("pure-loss factor = %v, want 0", f)
	}
	// Out-of-range loss is clamped.
	mc2.Observe(0, 1, time.Millisecond, -3, mt0)
	if f := mc2.RateFactor(id2); f != 1 {
		t.Fatalf("clamped-loss factor = %v, want 1", f)
	}
}

func TestMeasuredCostsRateFactorFloor(t *testing.T) {
	g, id := measuredFixture()
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return mt0 })
	mc.Observe(0, 1, time.Millisecond, 0, mt0)
	mc.Observe(0, 1, time.Hour, 0, mt0) // absurd spike
	if f := mc.RateFactor(id); f != minRateFactor {
		t.Fatalf("spike factor = %v, want floor %v", f, minRateFactor)
	}
}

func TestMeasuredCostsStalenessExpiry(t *testing.T) {
	g, id := measuredFixture()
	now := mt0
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return now })
	mc.Observe(0, 1, time.Millisecond, 0, now)
	mc.Observe(0, 1, 10*time.Millisecond, 0, now)
	v := mc.Version()
	if f := mc.RateFactor(id); f == 1 {
		t.Fatal("congestion not registered")
	}
	// Past the horizon: the measurement expires, the factor falls back
	// to 1, and the expiry is observable as a version bump.
	now = now.Add(2 * time.Minute)
	if got := mc.Version(); got == v {
		t.Fatal("staleness expiry did not bump the version")
	}
	if f := mc.RateFactor(id); f != 1 {
		t.Fatalf("stale factor = %v, want 1", f)
	}
	if mc.Measured() != 0 {
		t.Fatalf("measured = %d after expiry", mc.Measured())
	}
}

// TestMeasuredCostsForget: a withdrawal drops the edge's discount well
// before the overlay's own lease would, bumps the version so routes
// revalidate, and is a no-op on unmeasured or non-neighbor pairs.
func TestMeasuredCostsForget(t *testing.T) {
	g, id := measuredFixture()
	mc := NewMeasuredCosts(g, time.Hour, func() time.Time { return mt0 })
	mc.Observe(0, 1, 2*time.Millisecond, 0, mt0)
	mc.Observe(0, 1, 20*time.Millisecond, 0, mt0)
	if f := mc.RateFactor(id); math.Abs(f-0.1) > 1e-12 {
		t.Fatalf("congested factor = %v, want 0.1", f)
	}
	ver := mc.Version()
	if !mc.Forget(0, 1) {
		t.Fatal("Forget(0,1) did not map onto the measured edge")
	}
	if f := mc.RateFactor(id); f != 1 {
		t.Fatalf("factor after Forget = %v, want 1 (static model)", f)
	}
	if mc.Version() == ver {
		t.Fatal("Forget did not bump the version")
	}
	if mc.Forget(0, 1) {
		t.Fatal("Forget of an already-unmeasured edge reported true")
	}
	if mc.Forget(0, 2) {
		t.Fatal("Forget of a non-neighbor pair reported true")
	}
}

func TestMeasuredCostsUnmappedPairs(t *testing.T) {
	g, _ := measuredFixture()
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return mt0 })
	if mc.Observe(0, 2, time.Millisecond, 0, mt0) {
		t.Fatal("non-neighbor observation mapped onto an edge")
	}
	if mc.Unmapped() != 1 {
		t.Fatalf("unmapped = %d, want 1", mc.Unmapped())
	}
	if mc.Measured() != 0 {
		t.Fatalf("measured = %d, want 0", mc.Measured())
	}
}

func TestMeasuredCostsVersionOnObserve(t *testing.T) {
	g, _ := measuredFixture()
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return mt0 })
	v0 := mc.Version()
	mc.Observe(0, 1, time.Millisecond, 0, mt0)
	if mc.Version() == v0 {
		t.Fatal("observation did not bump the version")
	}
}

// TestMeasuredCostsFactorsMatchRateFactor: the one-lock bulk read returns,
// per edge, exactly what RateFactor returns — measured, lossy, cut and
// unmeasured edges alike — plus the current version, and it sweeps expired
// measurements just like a per-edge read.
func TestMeasuredCostsFactorsMatchRateFactor(t *testing.T) {
	g := Line(5, 1000)
	now := mt0
	mc := NewMeasuredCosts(g, time.Minute, func() time.Time { return now })
	mc.Observe(0, 1, 2*time.Millisecond, 0, now)
	mc.Observe(0, 1, 8*time.Millisecond, 0.1, now)
	mc.Observe(2, 3, 5*time.Millisecond, 0.6, now) // past the loss cut
	mc.Observe(3, 4, 5*time.Millisecond, 0, now.Add(-50*time.Second))
	check := func(label string) {
		t.Helper()
		f, ver := mc.Factors(nil, g.NumEdges())
		if ver != mc.Version() {
			t.Fatalf("%s: Factors version %d, Version() %d", label, ver, mc.Version())
		}
		for i := range f {
			if want := mc.RateFactor(EdgeID(i)); f[i] != want {
				t.Fatalf("%s: edge %d factor %v, RateFactor %v", label, i, f[i], want)
			}
		}
	}
	check("live")
	now = now.Add(30 * time.Second) // the 3-4 sample is now 80 s old, past its minute
	check("after expiry")
	if mc.Measured() != 2 {
		t.Fatalf("measured edges = %d, want 2 after the 3-4 sample expired", mc.Measured())
	}
}
