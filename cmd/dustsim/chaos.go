package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/proto"
)

// runChaos is the -chaos mode: instead of the Figure-5 testbed it runs the
// live control plane (DUST-Manager + supervised DUST-Clients) over
// in-memory links with injected faults — message drop, duplication, and
// one forced disconnect per client — then heals the links and reports
// whether the self-healing machinery (reconnect with backoff, Host-Sync
// anti-entropy, placement retries, keepalive substitution) converged the
// cluster: excess fully placed, NMDB ledger matching every client's local
// hosting, and a final placement round abandoning nothing.
func runChaos(n int, drop, dup float64, seed int64, metricsAddr string, verifyPlacements bool) error {
	const (
		busyNode = 0
		baseUtil = 92.0
		cmax     = 80.0
		excess   = baseUtil - cmax
	)
	if n < 3 {
		return fmt.Errorf("chaos mode needs at least 3 nodes, got %d", n)
	}
	// Half-utilized links: the route solver needs live utilization figures
	// to price controllable routes, exactly like the cluster test harness.
	topo := graph.Line(n, 1000)
	for i := 0; i < topo.NumEdges(); i++ {
		topo.SetUtilization(graph.EdgeID(i), 0.5)
	}
	// One registry across the manager and every client: the chaos demo is
	// exactly the workload the observability layer is for, and a scrape
	// during the run shows reconnects, retries, and Host-Sync traffic live.
	reg := obs.NewRegistry()
	if metricsAddr != "" {
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("chaos: metrics on http://%s/metrics\n", srv.Addr())
	}
	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:          topo,
		Defaults:          core.Thresholds{CMax: cmax, COMax: 50, XMin: 5},
		UpdateIntervalSec: 0.15,
		KeepaliveTimeout:  400 * time.Millisecond,
		AckTimeout:        200 * time.Millisecond,
		PlacementRetries:  2,
		Metrics:           reg,
		VerifyPlacements:  verifyPlacements,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()

	var (
		connsMu  sync.Mutex
		live     []*proto.FaultConn
		current  = make(map[int]*proto.FaultConn)
		dials    = make(map[int]int)
		chaosOn  atomic.Bool
		seedBase atomic.Int64
	)
	seedBase.Store(seed)
	chaoticPlan := func() proto.FaultPlan {
		return proto.FaultPlan{Seed: seedBase.Add(1), Drop: drop, Dup: dup}
	}
	dialFor := func(node int) func() (proto.Conn, error) {
		return func() (proto.Conn, error) {
			planC := proto.FaultPlan{Seed: seed + int64(node)}
			planM := proto.FaultPlan{Seed: seed + int64(node) + 1000}
			if chaosOn.Load() {
				planC, planM = chaoticPlan(), chaoticPlan()
			}
			ca, cb := proto.FaultPipe(64, planC, planM)
			connsMu.Lock()
			live = append(live, ca, cb)
			current[node] = ca
			dials[node]++
			connsMu.Unlock()
			go mgr.Attach(cb)
			return ca, nil
		}
	}

	// STATs report demand: the busy node keeps reporting its base load,
	// and every placement round re-affirms the same absolute plan.
	ledgerSum := func() float64 {
		sum := 0.0
		for _, a := range mgr.NMDB().ActiveAssignments() {
			if a.Busy == busyNode {
				sum += a.Amount
			}
		}
		return sum
	}
	resourcesFor := func(node int) func() cluster.Resources {
		if node == busyNode {
			return func() cluster.Resources {
				return cluster.Resources{UtilPct: baseUtil, DataMb: 30, NumAgents: 8}
			}
		}
		return func() cluster.Resources {
			return cluster.Resources{UtilPct: 30, DataMb: 5, NumAgents: 8}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	clients := make(map[int]*cluster.Client)
	for node := 0; node < n; node++ {
		dial := dialFor(node)
		conn, _ := dial()
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Node: node, Capable: true,
			Resources:        resourcesFor(node),
			Dial:             dial,
			ReconnectMin:     10 * time.Millisecond,
			ReconnectMax:     100 * time.Millisecond,
			HandshakeTimeout: 150 * time.Millisecond,
			Logf:             log.Printf,
			Metrics:          reg,
		}, conn)
		if err != nil {
			return err
		}
		if err := cl.Handshake(); err != nil {
			return err
		}
		clients[node] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(ctx)
		}()
	}
	bootstrap := time.Now().Add(5 * time.Second)
	for {
		ready := true
		for node := range clients {
			rec, ok := mgr.NMDB().Client(node)
			if !ok || rec.LastStat.IsZero() {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(bootstrap) {
			return fmt.Errorf("chaos: clients never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("chaos: %d clients registered on a %d-node line, busy node %d at %.0f%% (excess %.0f%%)\n",
		len(clients), n, busyNode, baseUtil, excess)

	// Chaos phase: faults on every link, one forced disconnect per client,
	// control loops kept running throughout.
	fmt.Printf("chaos: injecting drop=%.0f%% dup=%.0f%% and one forced disconnect per client\n",
		drop*100, dup*100)
	chaosOn.Store(true)
	connsMu.Lock()
	for _, fc := range live {
		fc.SetPlan(chaoticPlan())
	}
	connsMu.Unlock()
	for node := 0; node < n; node++ {
		if _, err := mgr.RunPlacement(); err != nil {
			return err
		}
		if _, err := mgr.CheckKeepalives(); err != nil {
			return err
		}
		connsMu.Lock()
		fc := current[node]
		connsMu.Unlock()
		fc.ForceDisconnect()
		time.Sleep(80 * time.Millisecond)
	}

	// Heal phase: new dials are reliable, live links drop their faults,
	// and the anti-entropy machinery must converge the state.
	fmt.Println("chaos: healing links, waiting for convergence")
	chaosOn.Store(false)
	connsMu.Lock()
	for _, fc := range live {
		fc.Heal()
	}
	connsMu.Unlock()

	type pair struct{ busy, dest int }
	ledgerPairs := func() map[pair]float64 {
		out := make(map[pair]float64)
		for _, a := range mgr.NMDB().ActiveAssignments() {
			out[pair{a.Busy, a.Candidate}] += a.Amount
		}
		return out
	}
	converged := func() bool {
		if ledgerSum() < excess-1e-6 {
			return false
		}
		pairs := ledgerPairs()
		for node, cl := range clients {
			hosting := cl.Hosting()
			for busy, amt := range hosting {
				if math.Abs(pairs[pair{busy, node}]-amt) > 1e-6 {
					return false
				}
			}
			for p := range pairs {
				if p.dest == node {
					if _, ok := hosting[p.busy]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: never converged; ledger = %v", ledgerPairs())
		}
		if _, err := mgr.RunPlacement(); err != nil {
			return err
		}
		if _, err := mgr.CheckKeepalives(); err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	report, err := mgr.RunPlacement()
	if err != nil {
		return err
	}
	if report.Abandoned() != 0 {
		return fmt.Errorf("chaos: final round abandoned %d assignment(s)", report.Abandoned())
	}

	var stats proto.FaultStats
	connsMu.Lock()
	for _, fc := range live {
		s := fc.Stats()
		stats.Sent += s.Sent
		stats.Delivered += s.Delivered
		stats.Dropped += s.Dropped
		stats.Duplicated += s.Duplicated
		stats.ForcedDisconnects += s.ForcedDisconnects
	}
	redials := 0
	for _, d := range dials {
		redials += d - 1
	}
	connsMu.Unlock()
	fmt.Printf("chaos: converged %.1fs after healing\n", time.Since(start).Seconds())
	fmt.Printf("  faults: %d sent, %d dropped, %d duplicated, %d forced disconnects, %d redials\n",
		stats.Sent, stats.Dropped, stats.Duplicated, stats.ForcedDisconnects, redials)
	for p, amt := range ledgerPairs() {
		fmt.Printf("  ledger: %.1f%% of node %d hosted by node %d\n", amt, p.busy, p.dest)
	}
	cancel()
	return nil
}
