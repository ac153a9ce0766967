package experiments

import (
	"reflect"
	"testing"
)

func TestMeasuredDriftControlLoop(t *testing.T) {
	res, err := RunMeasuredDrift(Quick())
	if err != nil {
		t.Fatal(err)
	}

	if res.MeasuredEdges != 6 {
		t.Fatalf("measured edges = %d, want all 6", res.MeasuredEdges)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(res.RouteBefore, want) {
		t.Fatalf("route before congestion = %v, want %v (the fast 2000/1500 path)", res.RouteBefore, want)
	}
	if want := []int{0, 3, 4}; !reflect.DeepEqual(res.RouteAfter, want) {
		t.Fatalf("route after congestion = %v, want %v (around the congested link)", res.RouteAfter, want)
	}
	if res.ReactionRounds != 1 {
		t.Fatalf("reaction = %d probe rounds, want 1 (EWMA crosses the flip threshold on the first congested sample)", res.ReactionRounds)
	}

	// The static baseline cannot see the congestion: same state, same
	// solver, no overlay — it still picks the congested route.
	if !reflect.DeepEqual(res.StaticRoute, res.RouteBefore) {
		t.Fatalf("static route = %v, want it stuck on %v", res.StaticRoute, res.RouteBefore)
	}
	if res.QualityRatio <= 2 {
		t.Fatalf("static/measured response-time ratio = %g, want > 2 (the congested link is 20× slower)", res.QualityRatio)
	}
	if res.CongestedFactor <= 0 || res.CongestedFactor >= 0.5 {
		t.Fatalf("congested rate factor = %g, want deep discount in (0, 0.5)", res.CongestedFactor)
	}

	// Cache accounting proves targeted revalidation, not rebuilds:
	// one flush ever (the cold start), the +1% jitter round absorbed with
	// zero evictions, and every post-cold miss paired with one targeted
	// eviction (busy 1's row — the other component — never re-solved).
	if res.CacheFinal.Flushes != 1 {
		t.Fatalf("flushes = %d, want exactly 1 (cold start only)", res.CacheFinal.Flushes)
	}
	if res.CacheAfterCold.Misses != 2 || res.CacheAfterCold.Evicted != 0 {
		t.Fatalf("cold stats = %+v, want 2 misses 0 evictions", res.CacheAfterCold)
	}
	if res.CacheAfterJitter.Evicted != 0 {
		t.Fatalf("jitter evicted %d rows, want 0 (sub-ε drift must be absorbed)", res.CacheAfterJitter.Evicted)
	}
	if res.CacheAfterJitter.Hits != res.CacheAfterCold.Hits+2 {
		t.Fatalf("jitter hits = %d, want %d (both rows reused)", res.CacheAfterJitter.Hits, res.CacheAfterCold.Hits+2)
	}
	if res.CacheFinal.Evicted < 1 {
		t.Fatalf("congestion evicted %d rows, want >= 1", res.CacheFinal.Evicted)
	}
	if res.CacheFinal.Misses != 2+res.CacheFinal.Evicted {
		t.Fatalf("misses = %d, want 2 cold + %d evicted (only affected rows re-solved)",
			res.CacheFinal.Misses, res.CacheFinal.Evicted)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}

	// Determinism: an identical seed reproduces the entire result.
	res2, err := RunMeasuredDrift(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", res, res2)
	}
}

func TestMeasuredDriftChaos(t *testing.T) {
	res, err := RunMeasuredDriftChaos(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Under lossy, duplicating probe legs exact accounting is off the
	// table; the loop must still converge: find the congestion, discount
	// the edge, and move busy 0 off the congested route.
	if res.ReactionRounds == 0 {
		t.Fatalf("never re-routed under chaos within the round budget (result %+v)", res)
	}
	if got, want := res.RouteAfter, []int{0, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos route after congestion = %v, want %v", got, want)
	}
	if res.CongestedFactor < 0 || res.CongestedFactor > 1 {
		t.Fatalf("rate factor %g outside [0,1]", res.CongestedFactor)
	}
	if res.MeasuredEdges == 0 {
		t.Fatal("no edges measured under chaos")
	}
}
