package cluster

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestChaosConvergence is the end-to-end resilience acceptance test: one
// busy node and four candidates exchange control-plane traffic over links
// that drop 20% and duplicate 5% of messages, every client is
// force-disconnected once mid-run, and reconnecting clients come back over
// equally faulty links. After the links heal, the system must converge:
// the busy node's excess fully placed, the NMDB ledger matching every
// client's local hosting, and a final placement round with zero abandoned
// assignments.
func TestChaosConvergence(t *testing.T) {
	const (
		numNodes = 6
		busyNode = 0
		baseUtil = 92.0
		excess   = 12.0 // baseUtil - CMax
	)
	mgr, err := NewManager(ManagerConfig{
		Topology:          lineTopology(numNodes),
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		UpdateIntervalSec: 0.15,
		KeepaliveTimeout:  400 * time.Millisecond,
		AckTimeout:        200 * time.Millisecond,
		PlacementRetries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	var (
		connsMu  sync.Mutex
		live     []*proto.FaultConn
		current  = make(map[int]*proto.FaultConn) // node -> client-side conn
		dials    = make(map[int]int)
		chaosOn  atomic.Bool
		seedBase atomic.Int64
	)
	chaoticPlan := func() proto.FaultPlan {
		return proto.FaultPlan{Seed: seedBase.Add(1), Drop: 0.2, Dup: 0.05}
	}
	dialFor := func(node int) func() (proto.Conn, error) {
		return func() (proto.Conn, error) {
			planC, planM := proto.FaultPlan{Seed: int64(node)}, proto.FaultPlan{Seed: int64(node) + 100}
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

	// STATs report demand: the busy node keeps reporting its base load
	// however much of it the ledger parks elsewhere, and every placement
	// round re-affirms the same absolute plan. The candidates report a
	// static comfortable level.
	ledgerSum := func(busy int) float64 {
		sum := 0.0
		for _, a := range mgr.NMDB().ActiveAssignments() {
			if a.Busy == busy {
				sum += a.Amount
			}
		}
		return sum
	}
	resourcesFor := func(node int) func() Resources {
		if node == busyNode {
			return func() Resources {
				return Resources{UtilPct: baseUtil, DataMb: 30, NumAgents: 8}
			}
		}
		return func() Resources {
			return Resources{UtilPct: 30, DataMb: 5, NumAgents: 8}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	clients := make(map[int]*Client)
	for node := 0; node < numNodes-1; node++ { // node 5 stays unregistered
		dial := dialFor(node)
		conn, _ := dial()
		cl, err := NewClient(ClientConfig{
			Node: node, Capable: true,
			Resources:        resourcesFor(node),
			Dial:             dial,
			ReconnectMin:     10 * time.Millisecond,
			ReconnectMax:     100 * time.Millisecond,
			HandshakeTimeout: 150 * time.Millisecond,
			Logf:             t.Logf,
		}, conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		clients[node] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(ctx)
		}()
	}
	waitFor(t, func() bool {
		for node := 0; node < numNodes-1; node++ {
			rec, ok := mgr.NMDB().Client(node)
			if !ok || rec.LastStat.IsZero() {
				return false
			}
		}
		return true
	})

	// Chaos phase: turn on faults everywhere, keep the control loops
	// running, and force-disconnect each client once.
	chaosOn.Store(true)
	connsMu.Lock()
	for _, fc := range live {
		fc.SetPlan(chaoticPlan())
	}
	connsMu.Unlock()
	for i := 0; i < numNodes-1; i++ {
		if _, err := mgr.RunPlacement(); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.CheckKeepalives(); err != nil {
			t.Fatal(err)
		}
		connsMu.Lock()
		fc := current[i]
		connsMu.Unlock()
		fc.ForceDisconnect()
		time.Sleep(80 * time.Millisecond)
	}

	// Heal phase: new dials are reliable and every live link drops its
	// faults; the anti-entropy machinery must now converge the state.
	chaosOn.Store(false)
	connsMu.Lock()
	for _, fc := range live {
		fc.Heal()
	}
	connsMu.Unlock()

	ledgerPairs := func() map[pendingKey]float64 {
		out := make(map[pendingKey]float64)
		for _, a := range mgr.NMDB().ActiveAssignments() {
			out[pendingKey{busy: a.Busy, dest: a.Candidate}] += a.Amount
		}
		return out
	}
	converged := func() bool {
		// Absolute offers cannot double-book: the ledger converges to the
		// excess exactly, not to at least the excess.
		if math.Abs(ledgerSum(busyNode)-excess) > 1e-6 {
			return false
		}
		pairs := ledgerPairs()
		for node, cl := range clients {
			hosting := cl.Hosting()
			for busy, amt := range hosting {
				if math.Abs(pairs[pendingKey{busy: busy, dest: node}]-amt) > 1e-6 {
					return false
				}
			}
			for pair := range pairs {
				if pair.dest != node {
					continue
				}
				if _, ok := hosting[pair.busy]; !ok {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			hostings := make(map[int]map[int]float64)
			for node, cl := range clients {
				hostings[node] = cl.Hosting()
			}
			t.Fatalf("never converged:\nledger = %v\nhosting = %v",
				ledgerPairs(), hostings)
		}
		if _, err := mgr.RunPlacement(); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.CheckKeepalives(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// With the excess covered, a final placement round must have nothing
	// left to abandon.
	report, err := mgr.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if report.Abandoned() != 0 {
		t.Fatalf("final round abandoned %d assignments: %+v", report.Abandoned(), report)
	}
	connsMu.Lock()
	reconnects := 0
	for _, n := range dials {
		reconnects += n - 1
	}
	connsMu.Unlock()
	if reconnects < numNodes-1 {
		t.Fatalf("expected every client to reconnect at least once, got %d redials", reconnects)
	}
}

// rawPeer registers a node on a bare pipe so the test can script its
// protocol behavior message by message (no Client state machine).
func rawPeer(t *testing.T, mgr *Manager, node int, util, dataMb float64) proto.Conn {
	t.Helper()
	a, b := proto.Pipe(16)
	go mgr.Attach(b)
	if err := a.Send(&proto.Message{
		Type: proto.MsgOffloadCapable, From: int32(node), To: ManagerNode, Seq: 1, Capable: true,
	}); err != nil {
		t.Fatal(err)
	}
	ack, err := recvMsg(a)
	if err != nil || ack.Type != proto.MsgAck || ack.Error != "" {
		t.Fatalf("handshake failed: %+v, %v", ack, err)
	}
	if err := a.Send(&proto.Message{
		Type: proto.MsgStat, From: int32(node), To: ManagerNode, Seq: 2,
		UtilPct: util, DataMb: dataMb, NumAgents: 5,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, ok := mgr.NMDB().Client(node)
		return ok && rec.UtilPct == util
	})
	return a
}

// TestOfferTimeoutsShareOneDeadline is the regression test for the shared
// placement timer: with two destinations both staying silent, the first
// wait drains the timer and — before the fix — the second wait blocked on
// the dead timer channel forever. Both must now time out together at the
// batch deadline.
func TestOfferTimeoutsShareOneDeadline(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology:   lineTopology(3),
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		AckTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	rawPeer(t, mgr, 0, 95, 30) // Cs = 15: needs both candidates
	rawPeer(t, mgr, 1, 40, 0)  // Cd = 10
	rawPeer(t, mgr, 2, 40, 0)  // Cd = 10

	start := time.Now()
	report, err := mgr.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("placement took %v; the second wait should reuse the first deadline", elapsed)
	}
	if len(report.TimedOut) != 2 || len(report.Accepted) != 0 {
		t.Fatalf("report = %+v, want both offers timed out", report)
	}
	if len(mgr.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("timed-out offers must not enter the ledger")
	}
}

// TestDuplicateOffloadAckRecordedOnce delivers the same accepting
// Offload-ACK twice (a replayed packet); the ledger must record the
// assignment exactly once.
func TestDuplicateOffloadAckRecordedOnce(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology:   lineTopology(2),
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		AckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	busy := rawPeer(t, mgr, 0, 90, 30) // Cs = 10
	dest := rawPeer(t, mgr, 1, 20, 0)  // Cd = 30

	reports := make(chan *PlacementReport, 1)
	go func() {
		report, err := mgr.RunPlacement()
		if err != nil {
			t.Error(err)
		}
		reports <- report
	}()
	req, err := recvMsg(dest)
	if err != nil || req.Type != proto.MsgOffloadRequest {
		t.Fatalf("offer = %+v, %v", req, err)
	}
	for seq := uint64(10); seq <= 11; seq++ {
		if err := dest.Send(&proto.Message{
			Type: proto.MsgOffloadAck, From: 1, To: ManagerNode, Seq: seq,
			BusyNode: req.BusyNode, Accept: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	report := <-reports
	if len(report.Accepted) != 1 {
		t.Fatalf("accepted = %+v, want exactly one", report.Accepted)
	}
	if redirect, err := recvMsg(busy); err != nil || redirect.Type != proto.MsgOffloadRequest {
		t.Fatalf("redirect = %+v, %v", redirect, err)
	}
	ledger := mgr.NMDB().ActiveAssignments()
	if len(ledger) != 1 || math.Abs(ledger[0].Amount-10) > 1e-9 {
		t.Fatalf("ledger = %+v, want one assignment of 10", ledger)
	}
}

// TestPlacementRetryFindsNextCandidate: the preferred candidate declines,
// and with PlacementRetries the manager re-solves with it excluded and
// places the excess on the next-best node.
func TestPlacementRetryFindsNextCandidate(t *testing.T) {
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnHost: func(int, float64, []int32) bool { return false }},
		{Node: 2, Capable: true},
	})
	h.manager.cfg.PlacementRetries = 2
	h.setUtil(0, 92, 50) // Cs = 12
	h.setUtil(1, 30, 0)  // Cd = 20, one hop: preferred, but declines
	h.setUtil(2, 20, 0)  // Cd = 30, two hops: the fallback

	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 2 {
		t.Fatalf("accepted = %+v, want the excess on node 2", report.Accepted)
	}
	if len(report.Retried) != 1 || report.Retried[0].Candidate != 1 {
		t.Fatalf("retried = %+v, want the declined offer to node 1", report.Retried)
	}
	if report.Abandoned() != 0 {
		t.Fatalf("abandoned = %d, want 0 (report %+v)", report.Abandoned(), report)
	}
	ledger := h.manager.NMDB().ActiveAssignments()
	if len(ledger) != 1 || ledger[0].Candidate != 2 {
		t.Fatalf("ledger = %+v", ledger)
	}
	waitFor(t, func() bool { return h.clients[2].IsDestination() })
}

// TestPlacementRetryExhaustsCandidates: every candidate declines; the
// retry loop must stop once no candidate remains and report the excess
// unplaced rather than spinning or double-offering.
func TestPlacementRetryExhaustsCandidates(t *testing.T) {
	decline := func(int, float64, []int32) bool { return false }
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnHost: decline},
		{Node: 2, Capable: true, OnHost: decline},
	})
	h.manager.cfg.PlacementRetries = 5
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	h.setUtil(2, 20, 0)

	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 0 {
		t.Fatalf("accepted = %+v, want none", report.Accepted)
	}
	if report.Abandoned() == 0 {
		t.Fatalf("report %+v: exhausted retries must surface abandonment", report)
	}
	if len(h.manager.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("declined offers must not enter the ledger")
	}
}

// TestKeepaliveSubstitutionUnderTraffic runs the failure-detection sweep
// while other clients hammer the manager with STAT and Keepalive traffic;
// the substitution must still land on a live replica (and the run is
// race-detector food).
func TestKeepaliveSubstitutionUnderTraffic(t *testing.T) {
	h := newHarness(t, lineTopology(4), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
	})
	h.setUtil(0, 92, 50) // busy, Cs = 12
	h.setUtil(1, 30, 0)  // the destination that will fall silent
	h.setUtil(2, 20, 0)  // replica candidates
	h.setUtil(3, 25, 0)
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, node := range []int{0, 2, 3} {
		cl := h.clients[node]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cl.SendStat(); err != nil {
					return
				}
				if err := cl.SendKeepalive(); err != nil {
					return
				}
			}
		}()
	}

	h.clock.Advance(10 * time.Minute) // node 1 never beaconed: stale
	subs, err := h.manager.CheckKeepalives()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Failed != 1 {
		t.Fatalf("substitutions = %+v, want node 1 replaced", subs)
	}
	if r := subs[0].Replica; r != 2 && r != 3 {
		t.Fatalf("replica = %d, want one of the live candidates", r)
	}
	ledger := h.manager.NMDB().ActiveAssignments()
	if len(ledger) != 1 || ledger[0].Candidate != subs[0].Replica {
		t.Fatalf("ledger = %+v, want the workload on the replica", ledger)
	}
}

// TestHandshakeNackDiagnosable: a rejected registration must reach the
// client as a typed refusal carrying the manager's reason, not a silent
// connection drop.
func TestHandshakeNackDiagnosable(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology: lineTopology(2),
		Defaults: core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	a, b := proto.Pipe(4)
	go mgr.Attach(b)
	cl, err := NewClient(ClientConfig{
		Node: 99, Capable: true,
		Resources: func() Resources { return Resources{} },
	}, a)
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Handshake()
	if err == nil {
		t.Fatal("out-of-topology registration should fail the handshake")
	}
	if !strings.Contains(err.Error(), "registration rejected") ||
		!strings.Contains(err.Error(), "outside topology") {
		t.Fatalf("err = %v, want the NACK reason surfaced", err)
	}

	// A wrong first message is also NACKed with its cause.
	a2, b2 := proto.Pipe(4)
	go mgr.Attach(b2)
	if err := a2.Send(&proto.Message{Type: proto.MsgStat, From: 0}); err != nil {
		t.Fatal(err)
	}
	nack, err := recvMsg(a2)
	if err != nil || nack.Type != proto.MsgAck || nack.Error == "" {
		t.Fatalf("nack = %+v, %v; want an ACK carrying an error", nack, err)
	}
	if !strings.Contains(nack.Error, "offload-capable") {
		t.Fatalf("nack reason = %q", nack.Error)
	}
}

// TestManagerCloseWaitsForHandshake: Close must unblock and wait out an
// Attach that is still sitting in the handshake Recv.
func TestManagerCloseWaitsForHandshake(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology: lineTopology(2),
		Defaults: core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := proto.Pipe(1)
	defer a.Close()
	attachDone := make(chan error, 1)
	go func() {
		_, err := mgr.Attach(b)
		attachDone <- err
	}()
	// Give Attach a moment to block in the handshake Recv.
	time.Sleep(20 * time.Millisecond)

	closeDone := make(chan struct{})
	go func() {
		mgr.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on the in-flight handshake")
	}
	if err := <-attachDone; err == nil {
		t.Fatal("interrupted handshake should report an error")
	}
	if _, err := mgr.Attach(a); err == nil {
		t.Fatal("Attach after Close should be rejected")
	}
}

// TestClientReconnectResync: a supervised client whose connection dies
// redials, re-handshakes, and re-declares its hosting; the manager, which
// dropped the assignment on the disconnect, answers with a release, and a
// later placement round restores the offload. Ledger and client views must
// re-agree.
func TestClientReconnectResync(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology:          lineTopology(2),
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		UpdateIntervalSec: 0.1,
		KeepaliveTimeout:  time.Second,
		AckTimeout:        time.Second,
		PlacementRetries:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	var connsMu sync.Mutex
	conns := make(map[int]proto.Conn)
	dialCount := make(map[int]int)
	dialFor := func(node int) func() (proto.Conn, error) {
		return func() (proto.Conn, error) {
			a, b := proto.Pipe(16)
			connsMu.Lock()
			conns[node] = a
			dialCount[node]++
			connsMu.Unlock()
			go mgr.Attach(b)
			return a, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	clients := make(map[int]*Client)
	for node, util := range map[int]float64{0: 90, 1: 20} {
		util := util
		dial := dialFor(node)
		conn, _ := dial()
		cl, err := NewClient(ClientConfig{
			Node: node, Capable: true,
			Resources:        func() Resources { return Resources{UtilPct: util, DataMb: 30, NumAgents: 5} },
			Dial:             dial,
			ReconnectMin:     5 * time.Millisecond,
			ReconnectMax:     50 * time.Millisecond,
			HandshakeTimeout: 200 * time.Millisecond,
		}, conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		clients[node] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	waitFor(t, func() bool {
		r0, ok0 := mgr.NMDB().Client(0)
		r1, ok1 := mgr.NMDB().Client(1)
		return ok0 && ok1 && r0.UtilPct == 90 && r1.UtilPct == 20
	})
	report, err := mgr.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}
	waitFor(t, func() bool { return clients[1].IsDestination() })

	// Kill the destination's connection: the manager substitutes (finding
	// no replica on a 2-node line, it abandons), the client reconnects and
	// resyncs, and subsequent placement rounds restore the offload.
	connsMu.Lock()
	conns[1].Close()
	connsMu.Unlock()
	waitFor(t, func() bool {
		connsMu.Lock()
		defer connsMu.Unlock()
		return dialCount[1] >= 2
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := mgr.RunPlacement(); err != nil {
			t.Fatal(err)
		}
		ledger := mgr.NMDB().ActiveAssignments()
		hosting := clients[1].Hosting()
		if len(ledger) == 1 && math.Abs(ledger[0].Amount-hosting[0]) < 1e-6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconverged: ledger=%v hosting=%v", ledger, hosting)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
