package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/probe"
	"repro/internal/proto"
)

// MeasuredResult summarizes the measured-latency control loop experiment:
// a congested link appears mid-run, active probes detect it, the measured
// cost overlay shifts the edge costs, and the next placement re-routes —
// evicting only the affected route-cache rows (not a full rebuild) —
// while a static-cost baseline keeps sending traffic over the congested
// link forever.
type MeasuredResult struct {
	// Chaos marks the FaultConn variant (lossy, duplicating probe legs).
	Chaos bool
	// ProbeRounds counts completed probe→report rounds.
	ProbeRounds int
	// MeasuredEdges is how many topology edges carried a live measurement
	// when the congestion hit.
	MeasuredEdges int
	// RouteBefore/RouteAfter are busy node 0's placement route (node
	// sequence) before and after the congestion onset.
	RouteBefore, RouteAfter []int
	// StaticRoute is the route a static-cost solve picks on the same
	// post-congestion state: measured costs off, so it cannot react.
	StaticRoute []int
	// ReactionRounds is how many probe rounds after the onset the first
	// re-routed placement needed (0 = never re-routed within the budget).
	ReactionRounds int
	// CacheAfterCold/CacheAfterJitter/CacheFinal snapshot the route-cache
	// counters after the cold solve, after the sub-ε jitter round, and at
	// the end. Jitter must be absorbed (no evictions); the congestion must
	// evict only the affected row (Misses == 2 cold + Evicted).
	CacheAfterCold, CacheAfterJitter, CacheFinal core.CacheStats
	// CongestedFactor is the congested edge's final measured rate factor.
	CongestedFactor float64
	// QualityRatio is modelled response time of the static route over the
	// measured route, both priced at the measured (congested) edge costs:
	// how much slower the baseline's choice actually is.
	QualityRatio float64
}

// measuredRTTs is the shared ground-truth latency model: one RTT per
// adjacent node pair, read per probe send (so congestion onset is visible
// to the next frame) and split evenly over the two relay legs.
type measuredRTTs struct {
	mu  sync.Mutex
	rtt map[[2]int]time.Duration
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (m *measuredRTTs) set(a, b int, rtt time.Duration) {
	m.mu.Lock()
	m.rtt[pairKey(a, b)] = rtt
	m.mu.Unlock()
}

func (m *measuredRTTs) scale(f float64) {
	m.mu.Lock()
	for k, v := range m.rtt {
		m.rtt[k] = time.Duration(float64(v) * f)
	}
	m.mu.Unlock()
}

func (m *measuredRTTs) oneWay(msg *proto.Message) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rtt[pairKey(int(msg.From), int(msg.To))] / 2
}

// probeFaultConn applies a FaultConn to the measurement plane only:
// probes, replies, and reports ride the faulty path while the control
// plane (handshake, STATs, offload offers) stays reliable. This isolates
// the chaos question — does the estimator converge under loss and
// duplication? — from control-plane retry behavior tested elsewhere.
type probeFaultConn struct {
	inner proto.Conn
	fault *proto.FaultConn
}

func (c *probeFaultConn) Send(m *proto.Message) error {
	switch m.Type {
	case proto.MsgProbe, proto.MsgProbeReply, proto.MsgProbeReport:
		return c.fault.Send(m)
	}
	return c.inner.Send(m)
}
func (c *probeFaultConn) Recv(m *proto.Message) error { return c.inner.Recv(m) }
func (c *probeFaultConn) Buffered() int               { return c.inner.Buffered() }
func (c *probeFaultConn) Close() error                { return c.inner.Close() }

// RunMeasuredDrift drives the measured-latency control loop end to end
// over the real Manager/Client protocol under a virtual clock. The
// topology has two independent placement components, so the congestion in
// one provably cannot justify touching the other's cached routes.
func RunMeasuredDrift(cfg Config) (*MeasuredResult, error) {
	return runMeasuredDrift(cfg, false)
}

// RunMeasuredDriftChaos is RunMeasuredDrift with lossy, duplicating
// FaultConn probe legs; assertions weaken from exact accounting to
// convergence (the loop must still find the congestion and re-route).
func RunMeasuredDriftChaos(cfg Config) (*MeasuredResult, error) {
	return runMeasuredDrift(cfg, true)
}

func runMeasuredDrift(cfg Config, chaos bool) (*MeasuredResult, error) {
	// Two components. A: busy 0 offloads to candidate 4 via relay 2
	// (fast, becomes congested) or relay 3 (slower but clean). B: busy 1
	// offloads to candidate 5 via relay 6 — no edge shared with A, so its
	// cached route row must survive A's congestion untouched.
	g := graph.New(7)
	e02 := g.AddEdge(0, 2, 2000)
	e24 := g.AddEdge(2, 4, 1500)
	g.AddEdge(0, 3, 2000)
	g.AddEdge(3, 4, 1000)
	g.AddEdge(1, 6, 1000)
	g.AddEdge(5, 6, 1000)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	_, _ = e02, e24

	th := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	params := core.DefaultParams()
	params.Thresholds = th
	params.PathStrategy = core.PathDP
	params.MaxHops = 3
	params.CacheEpsilon = 0.05
	params.Parallelism = cfg.Parallelism

	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:           g,
		Defaults:           th,
		Params:             params,
		UpdateIntervalSec:  60,
		KeepaliveTimeout:   time.Hour,
		AckTimeout:         2 * time.Second,
		Now:                now,
		MeasuredCosts:      true,
		MeasuredStaleAfter: 30 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	mc := mgr.MeasuredCosts()

	rtts := &measuredRTTs{rtt: map[[2]int]time.Duration{}}
	for _, e := range g.Edges() {
		rtts.set(e.U, e.V, 4*time.Millisecond)
	}

	// Downstream-only probing: exactly one prober per edge, so every probe
	// round contributes one mapped sample per edge.
	probePeers := map[int][]int{0: {2, 3}, 2: {4}, 3: {4}, 1: {6}, 6: {5}}
	utils := map[int]float64{0: 92, 1: 90, 2: 60, 3: 60, 4: 30, 5: 30, 6: 60}

	clients := make(map[int]*cluster.Client, g.NumNodes())
	var probers []*cluster.Client
	for node := 0; node < g.NumNodes(); node++ {
		node := node
		clientEnd, managerEnd := proto.Pipe(32)
		var conn proto.Conn = clientEnd
		if chaos && len(probePeers[node]) > 0 {
			conn = &probeFaultConn{
				inner: clientEnd,
				fault: proto.NewFaultConn(clientEnd, proto.FaultPlan{
					Seed: cfg.Seed*31 + int64(node), Drop: 0.25, Dup: 0.25,
				}),
			}
		}
		conn = probe.NewLatencyConn(conn, rtts.oneWay)
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Node: node, Capable: true,
			Seed:          cfg.Seed*1000 + int64(node) + 1,
			ProbePeers:    probePeers[node],
			ProbeInterval: time.Second,
			Now:           now,
			Resources: func() cluster.Resources {
				data := 5.0
				if node == 0 || node == 1 {
					data = 50
				}
				return cluster.Resources{UtilPct: utils[node], DataMb: data, NumAgents: 10}
			},
		}, conn)
		if err != nil {
			return nil, err
		}
		attachErr := make(chan error, 1)
		go func() {
			_, err := mgr.Attach(managerEnd)
			attachErr <- err
		}()
		if err := cl.Handshake(); err != nil {
			return nil, err
		}
		if err := <-attachErr; err != nil {
			return nil, err
		}
		go func() {
			for {
				if _, err := cl.Step(); err != nil {
					return
				}
			}
		}()
		clients[node] = cl
		if len(probePeers[node]) > 0 {
			probers = append(probers, cl)
		}
	}
	for node, cl := range clients {
		if err := cl.SendStat(); err != nil {
			return nil, err
		}
		if err := waitNMDB(mgr, node, utils[node]); err != nil {
			return nil, err
		}
	}

	res := &MeasuredResult{Chaos: chaos}
	probeRound := func() error {
		res.ProbeRounds++
		advance(1600 * time.Millisecond) // past the max jittered spacing: every peer due
		for _, cl := range probers {
			if err := cl.ProbeTick(); err != nil {
				return err
			}
		}
		// Settle the round trips. Chaos drops leave probes outstanding
		// until the pinger's timeout expires them as losses, so there the
		// wait is best-effort and time-bounded.
		deadline := time.Now().Add(2 * time.Second)
		if chaos {
			deadline = time.Now().Add(100 * time.Millisecond)
		}
		for time.Now().Before(deadline) {
			n := 0
			for _, cl := range probers {
				n += cl.ProbesOutstanding()
			}
			if n == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		want := mc.Version()
		samples := 0
		for _, cl := range probers {
			samples += len(cl.ProbeEstimates())
			if err := cl.SendProbeReport(); err != nil {
				return err
			}
		}
		want += uint64(samples)
		deadline = time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && mc.Version() < want {
			time.Sleep(time.Millisecond)
		}
		if !chaos && mc.Version() < want {
			return fmt.Errorf("experiments: probe reports never ingested (version %d < %d)", mc.Version(), want)
		}
		return nil
	}
	routeOf := func(rep *cluster.PlacementReport, busy int) ([]int, error) {
		for _, a := range rep.Accepted {
			if a.Busy == busy {
				return pathNodes(g, a.Route), nil
			}
		}
		return nil, fmt.Errorf("experiments: no accepted placement for busy node %d", busy)
	}

	// Phase 1 — baseline: two probe rounds establish the uncongested RTT
	// floor on every edge, then the cold placement solve routes over it.
	for i := 0; i < 2; i++ {
		if err := probeRound(); err != nil {
			return nil, err
		}
	}
	res.MeasuredEdges = mc.Measured()
	rep, err := mgr.RunPlacement()
	if err != nil {
		return nil, err
	}
	if res.RouteBefore, err = routeOf(rep, 0); err != nil {
		return nil, err
	}
	res.CacheAfterCold = mgr.RouteCacheStats()

	// Phase 2 — sub-ε jitter: +1% RTT everywhere. The measured overlay
	// versions forward, the cache revalidates, and the ε rule absorbs the
	// drift without evicting a single row.
	rtts.scale(1.01)
	if err := probeRound(); err != nil {
		return nil, err
	}
	if _, err := mgr.RunPlacement(); err != nil {
		return nil, err
	}
	res.CacheAfterJitter = mgr.RouteCacheStats()

	// Phase 3 — congestion onset on the 2-4 link (the fast route's second
	// hop): RTT jumps 20×. Probe rounds pull the EWMA up; each placement
	// after a report re-prices the edge, and the first solve that sees the
	// drift past ε re-routes busy 0 onto the clean 0-3-4 path.
	rtts.set(2, 4, 80*time.Millisecond)
	maxRounds := 10
	if chaos {
		maxRounds = 30
	}
	for i := 1; i <= maxRounds; i++ {
		if err := probeRound(); err != nil {
			return nil, err
		}
		rep, err := mgr.RunPlacement()
		if err != nil {
			return nil, err
		}
		route, err := routeOf(rep, 0)
		if err != nil {
			return nil, err
		}
		if !equalRoute(route, res.RouteBefore) {
			res.RouteAfter = route
			res.ReactionRounds = i
			break
		}
	}
	res.CacheFinal = mgr.RouteCacheStats()

	// Static baseline on the identical post-congestion state: without the
	// overlay the edge costs never moved, so the solve still picks the
	// now-congested route.
	state := mgr.NMDB().SnapshotState(th)
	staticRes, err := core.Solve(state, params)
	if err != nil {
		return nil, err
	}
	for _, a := range staticRes.Assignments {
		if a.Busy == 0 {
			res.StaticRoute = pathNodes(g, a.Route)
		}
	}

	// Price both choices at the measured (ground-truth-informed) costs.
	if e, ok := g.EdgeBetween(2, 4); ok {
		res.CongestedFactor = mc.RateFactor(e.ID)
	}
	measuredParams := params
	measuredParams.Measured = mc
	cost := graph.InverseRateCost(measuredParams.EffectiveRate)
	if len(res.StaticRoute) > 1 && len(res.RouteAfter) > 1 {
		staticCost := routeCost(g, res.StaticRoute, cost)
		measuredCost := routeCost(g, res.RouteAfter, cost)
		if measuredCost > 0 {
			res.QualityRatio = staticCost / measuredCost
		}
	}
	return res, nil
}

// pathNodes expands a Path's edge list into its node sequence.
func pathNodes(g *graph.Graph, p graph.Path) []int {
	nodes := []int{p.Src}
	cur := p.Src
	for _, id := range p.Edges {
		cur = g.Edge(id).Other(cur)
		nodes = append(nodes, cur)
	}
	return nodes
}

func equalRoute(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// routeCost sums the per-hop cost over a node sequence.
func routeCost(g *graph.Graph, nodes []int, cost graph.EdgeCost) float64 {
	sum := 0.0
	for i := 1; i < len(nodes); i++ {
		e, ok := g.EdgeBetween(nodes[i-1], nodes[i])
		if !ok {
			return 0
		}
		sum += cost(e)
	}
	return sum
}

func fmtRoute(nodes []int) string {
	if len(nodes) == 0 {
		return "(none)"
	}
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "-")
}

// Table renders the run summary.
func (r *MeasuredResult) Table() string {
	title := "Measured-latency control loop (probe → edge costs → re-route)"
	if r.Chaos {
		title += " — chaos variant"
	}
	rows := [][]string{
		{"probe rounds", fmt.Sprintf("%d", r.ProbeRounds)},
		{"edges with live measurements", fmt.Sprintf("%d", r.MeasuredEdges)},
		{"route before congestion", fmtRoute(r.RouteBefore)},
		{"route after congestion", fmtRoute(r.RouteAfter)},
		{"static-cost route (baseline)", fmtRoute(r.StaticRoute)},
		{"reaction time (probe rounds)", fmt.Sprintf("%d", r.ReactionRounds)},
		{"congested edge rate factor", f3(r.CongestedFactor)},
		{"static/measured response-time ratio", f2(r.QualityRatio) + "×"},
		{"route cache flushes", fmt.Sprintf("%d", r.CacheFinal.Flushes)},
		{"route cache evictions (targeted)", fmt.Sprintf("%d", r.CacheFinal.Evicted)},
		{"route cache hits / misses", fmt.Sprintf("%d / %d", r.CacheFinal.Hits, r.CacheFinal.Misses)},
	}
	return title + "\n" + table([]string{"metric", "value"}, rows)
}
