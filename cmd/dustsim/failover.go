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

// runFailover is the -failover mode: a primary DUST-Manager with active
// offloads, a warm standby replicating its checkpoints, and supervised
// clients holding both addresses in their dialer list. Mid-run the primary
// is killed; the demo then reports the full HA sequence — the standby's
// missed-heartbeat watchdog promoting it, every client rotating onto the
// promoted manager, degraded mode ending once the resync quorum is met,
// and the promoted ledger matching the pre-kill assignment set exactly.
func runFailover(n int, seed int64, promoteAfter time.Duration, metricsAddr string, verifyPlacements bool) error {
	const (
		busyNode = 0
		baseUtil = 92.0
		cmax     = 80.0
		excess   = baseUtil - cmax
	)
	if n < 3 {
		return fmt.Errorf("failover mode needs at least 3 nodes, got %d", n)
	}
	if promoteAfter <= 0 {
		promoteAfter = time.Second
	}
	topo := graph.Line(n, 1000)
	for i := 0; i < topo.NumEdges(); i++ {
		topo.SetUtilization(graph.EdgeID(i), 0.5)
	}
	defaults := core.Thresholds{CMax: cmax, COMax: 50, XMin: 5}

	// The primary and its clients share one registry (served on
	// -metrics-addr); the standby gets its own so the two managers' gauges
	// do not alias.
	regP, regS := obs.NewRegistry(), obs.NewRegistry()
	if metricsAddr != "" {
		srv, err := obs.Serve(metricsAddr, regP)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("failover: metrics on http://%s/metrics\n", srv.Addr())
	}

	primary, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:            topo,
		Defaults:            defaults,
		UpdateIntervalSec:   0.15,
		KeepaliveTimeout:    5 * time.Second,
		AckTimeout:          500 * time.Millisecond,
		PlacementRetries:    2,
		ReplicationInterval: 100 * time.Millisecond,
		Metrics:             regP,
		VerifyPlacements:    verifyPlacements,
	})
	if err != nil {
		return err
	}
	defer primary.Close()
	standby, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:          topo,
		Defaults:          defaults,
		UpdateIntervalSec: 0.15,
		KeepaliveTimeout:  5 * time.Second,
		AckTimeout:        500 * time.Millisecond,
		PlacementRetries:  2,
		Follower:          true,
		GraceWindow:       30 * time.Second,
		ResyncQuorum:      0.5,
		Metrics:           regS,
		VerifyPlacements:  verifyPlacements,
	})
	if err != nil {
		return err
	}
	defer standby.Close()

	// current points at the authoritative manager, whose ledger the
	// convergence checks read.
	var current atomic.Pointer[cluster.Manager]
	current.Store(primary)

	attachDial := func(m *cluster.Manager) func() (proto.Conn, error) {
		return func() (proto.Conn, error) {
			a, b := proto.Pipe(64)
			go m.Attach(b)
			return a, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()

	sb, err := cluster.NewStandby(cluster.StandbyConfig{
		Manager:      standby,
		Dial:         attachDial(primary),
		PromoteAfter: promoteAfter,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sb.Run(ctx); err != nil && ctx.Err() == nil {
			log.Printf("failover: standby: %v", err)
		}
	}()

	ledgerSum := func() float64 {
		sum := 0.0
		for _, a := range current.Load().NMDB().ActiveAssignments() {
			if a.Busy == busyNode {
				sum += a.Amount
			}
		}
		return sum
	}
	// STATs report demand: the busy node keeps reporting its base load
	// across the failover, and each manager's rounds re-affirm the plan.
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

	clients := make(map[int]*cluster.Client)
	for node := 0; node < n; node++ {
		dialers := []func() (proto.Conn, error){attachDial(primary), attachDial(standby)}
		conn, err := dialers[0]()
		if err != nil {
			return err
		}
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Node: node, Capable: true,
			Resources:        resourcesFor(node),
			Dialers:          dialers,
			ReconnectMin:     10 * time.Millisecond,
			ReconnectMax:     200 * time.Millisecond,
			HandshakeTimeout: 250 * time.Millisecond,
			Logf:             log.Printf,
			Metrics:          regP,
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
	_ = seed // topology and traffic are deterministic in this mode

	type pair struct{ busy, dest int }
	pairsOf := func(m *cluster.Manager) map[pair]float64 {
		out := make(map[pair]float64)
		for _, a := range m.NMDB().ActiveAssignments() {
			out[pair{a.Busy, a.Candidate}] += a.Amount
		}
		return out
	}
	pairsEqual := func(a, b map[pair]float64) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if math.Abs(b[k]-v) > 1e-6 {
				return false
			}
		}
		return true
	}

	// Phase 1: place the excess on the primary and wait until the standby
	// has replicated the exact assignment set.
	fmt.Printf("failover: %d clients on a %d-node line, busy node %d at %.0f%% (excess %.0f%%)\n",
		len(clients), n, busyNode, baseUtil, excess)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := primary.RunPlacement(); err != nil {
			return err
		}
		if ledgerSum() >= excess-1e-6 && pairsEqual(pairsOf(primary), pairsOf(standby)) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: standby never replicated the ledger; primary = %v, standby = %v",
				pairsOf(primary), pairsOf(standby))
		}
		time.Sleep(50 * time.Millisecond)
	}
	preKill := pairsOf(primary)
	fmt.Printf("failover: excess placed and replicated (%d assignment pair(s), standby epoch %d)\n",
		len(preKill), sb.Epoch())

	// Phase 2: kill the primary. The watchdog must promote the standby,
	// clients must rotate onto it, and degraded mode must end via the
	// resync quorum.
	fmt.Printf("failover: killing primary; watchdog promotes after %v of silence\n", promoteAfter)
	killedAt := time.Now()
	primary.Close()
	current.Store(standby)
	for !sb.Promoted() {
		if time.Now().After(killedAt.Add(promoteAfter + 15*time.Second)) {
			return fmt.Errorf("failover: standby never promoted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("failover: standby promoted %.1fs after the kill\n", time.Since(killedAt).Seconds())

	converged := func() bool {
		if standby.Degraded() {
			return false
		}
		pairs := pairsOf(standby)
		if !pairsEqual(pairs, preKill) {
			return false
		}
		for node, cl := range clients {
			hosting := cl.Hosting()
			for busy, amt := range hosting {
				if math.Abs(pairs[pair{busy, node}]-amt) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	deadline = time.Now().Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: never converged; degraded=%v standby ledger = %v, pre-kill = %v",
				standby.Degraded(), pairsOf(standby), preKill)
		}
		if _, err := standby.RunPlacement(); err != nil {
			return err
		}
		if _, err := standby.CheckKeepalives(); err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	report, err := standby.RunPlacement()
	if err != nil {
		return err
	}
	if report.Abandoned() != 0 {
		return fmt.Errorf("failover: post-promotion round abandoned %d assignment(s)", report.Abandoned())
	}

	fmt.Printf("failover: converged %.1fs after the kill — degraded mode exited, ledger intact\n",
		time.Since(killedAt).Seconds())
	for p, amt := range pairsOf(standby) {
		fmt.Printf("  ledger: %.1f%% of node %d hosted by node %d\n", amt, p.busy, p.dest)
	}
	cancel()
	return nil
}
