package graph

import (
	"sync"
	"time"
)

// Default MeasuredCosts parameters.
const (
	// DefaultMeasuredStaleAfter is how long a per-edge measurement
	// survives without a fresh report before the overlay forgets it and
	// the edge's cost falls back to the static model.
	DefaultMeasuredStaleAfter = 2 * time.Minute
	// DefaultLossCut is the smoothed loss rate at which an edge counts as
	// effectively down: its rate factor drops to 0, making the edge
	// impassable (+Inf cost) rather than merely slow.
	DefaultLossCut = 0.5
	// minRateFactor floors the congestion discount so a single extreme
	// RTT spike cannot zero an edge that is still passing traffic; only
	// the loss cut makes an edge impassable.
	minRateFactor = 0.01
)

// MeasuredCosts is the overlay that blends active RTT/loss measurements
// (internal/probe) into route costs. It maps probe observations between
// neighbor pairs onto topology edges and derives a per-edge rate factor
// in [0, 1]:
//
//	factor = clamp(baselineRTT/currentRTT, minRateFactor, 1) × (1 − loss)
//
// where baselineRTT is the smallest smoothed RTT ever observed for the
// edge (the uncongested floor). An edge at its baseline with no loss has
// factor 1 — measured costs agree with the static model. A congested
// edge's RTT grows, shrinking the factor proportionally; loss at or above
// the cut zeroes it, which InverseRateCost turns into +Inf (impassable).
// Unmeasured and stale edges report factor 1, so partial probe coverage
// degrades to the static model instead of distorting it.
//
// Version increments whenever the factor map may have changed — including
// by staleness expiry, which is swept lazily on read — so RouteCache can
// revalidate exactly when measurements moved. All methods are
// goroutine-safe.
type MeasuredCosts struct {
	g *Graph

	mu         sync.Mutex
	staleAfter time.Duration
	lossCut    float64
	now        func() time.Time
	edges      map[EdgeID]*measuredEdge
	version    uint64
	unmapped   uint64
}

type measuredEdge struct {
	baseRTT time.Duration
	curRTT  time.Duration
	loss    float64
	at      time.Time
}

// NewMeasuredCosts returns an empty overlay for g. staleAfter bounds
// measurement lifetime (non-positive = default); now injects the clock
// (nil = time.Now) so simulations expire staleness on the virtual clock.
func NewMeasuredCosts(g *Graph, staleAfter time.Duration, now func() time.Time) *MeasuredCosts {
	if staleAfter <= 0 {
		staleAfter = DefaultMeasuredStaleAfter
	}
	if now == nil {
		now = time.Now
	}
	return &MeasuredCosts{
		g:          g,
		staleAfter: staleAfter,
		lossCut:    DefaultLossCut,
		now:        now,
		edges:      map[EdgeID]*measuredEdge{},
	}
}

// Observe folds one smoothed (u→v) measurement into the overlay. The
// pair must be directly connected in the topology; measurements between
// non-neighbors are counted and dropped (the probing client named a peer
// it has no edge to — multi-hop RTTs cannot be attributed to one edge).
// It returns whether the measurement mapped onto an edge.
//
// An RTT of 0 means the reporting client has only losses for the pair
// (no completed round trip); the loss rate still applies, but no
// congestion ratio can be formed, so the RTT part is left at baseline.
func (mc *MeasuredCosts) Observe(u, v int, rtt time.Duration, loss float64, at time.Time) bool {
	e, ok := mc.g.EdgeBetween(u, v)
	if !ok {
		mc.mu.Lock()
		mc.unmapped++
		mc.mu.Unlock()
		return false
	}
	if loss < 0 {
		loss = 0
	} else if loss > 1 {
		loss = 1
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	me := mc.edges[e.ID]
	if me == nil {
		me = &measuredEdge{}
		mc.edges[e.ID] = me
	}
	if rtt > 0 {
		if me.baseRTT == 0 || rtt < me.baseRTT {
			me.baseRTT = rtt
		}
		me.curRTT = rtt
	}
	me.loss = loss
	me.at = at
	mc.version++
	return true
}

// Forget withdraws the measurement for the (u, v) edge, restoring its
// static-model cost immediately. Probing clients report a peer whose
// estimate crossed their (shorter) staleness horizon as a withdrawal
// sample; without this the overlay would hold a dead edge's discount for
// its own lease, steering traffic with measurements the prober already
// disowned. It returns whether the pair mapped onto a measured edge.
func (mc *MeasuredCosts) Forget(u, v int) bool {
	e, ok := mc.g.EdgeBetween(u, v)
	if !ok {
		return false
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if _, measured := mc.edges[e.ID]; !measured {
		return false
	}
	delete(mc.edges, e.ID)
	mc.version++
	return true
}

// RateFactor returns the multiplicative rate discount for edge id, in
// [0, 1]. Unmeasured (or expired) edges return 1.
func (mc *MeasuredCosts) RateFactor(id EdgeID) float64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.sweepLocked()
	me := mc.edges[id]
	if me == nil {
		return 1
	}
	return me.factor(mc.lossCut)
}

// Factors writes the rate factor of every edge ID in [0, n) into dst
// (grown as needed) and returns it with the version it reflects. It sweeps
// staleness once and copies every factor under one lock, so a route round
// that reads the overlay through Factors prices all edges against the same
// measurements even while Observe runs concurrently, and pays one lock per
// round instead of one per edge.
func (mc *MeasuredCosts) Factors(dst []float64, n int) ([]float64, uint64) {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 1
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.sweepLocked()
	for id, me := range mc.edges {
		if int(id) < n {
			dst[id] = me.factor(mc.lossCut)
		}
	}
	return dst, mc.version
}

func (me *measuredEdge) factor(lossCut float64) float64 {
	if me.loss >= lossCut {
		return 0
	}
	f := 1.0
	if me.curRTT > me.baseRTT && me.baseRTT > 0 {
		f = float64(me.baseRTT) / float64(me.curRTT)
		if f < minRateFactor {
			f = minRateFactor
		}
	}
	return f * (1 - me.loss)
}

// Version returns a counter that changes whenever the factor map may
// have changed. Staleness is swept here (lazily, on the injected clock),
// so an expiry is observable as a version bump without a background
// goroutine.
func (mc *MeasuredCosts) Version() uint64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.sweepLocked()
	return mc.version
}

// sweepLocked drops measurements older than the staleness horizon;
// callers hold mc.mu.
func (mc *MeasuredCosts) sweepLocked() {
	now := mc.now()
	for id, me := range mc.edges {
		if now.Sub(me.at) > mc.staleAfter {
			delete(mc.edges, id)
			mc.version++
		}
	}
}

// Measured reports how many edges currently carry a live measurement.
func (mc *MeasuredCosts) Measured() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.sweepLocked()
	return len(mc.edges)
}

// Unmapped reports how many observations named non-neighbor pairs.
func (mc *MeasuredCosts) Unmapped() uint64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.unmapped
}
