package cluster

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// waitLong is waitFor with a caller-chosen deadline, for failover paths
// whose convergence involves real backoff sleeps and watchdog timers.
func waitLong(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// attachDialer returns a Dial function that opens an in-memory pipe to m.
func attachDialer(m *Manager) func() (proto.Conn, error) {
	return func() (proto.Conn, error) {
		a, b := proto.Pipe(64)
		go m.Attach(b)
		return a, nil
	}
}

// pairsOf flattens a ledger into busy→dest pair totals.
func pairsOf(db *NMDB) map[pendingKey]float64 {
	out := make(map[pendingKey]float64)
	for _, a := range db.ActiveAssignments() {
		out[pendingKey{busy: a.Busy, dest: a.Candidate}] += a.Amount
	}
	return out
}

func pairsEqual(a, b map[pendingKey]float64) bool {
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

func TestReplicationStreamAndManualPromote(t *testing.T) {
	topo := lineTopology(4)
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	primary, err := NewManager(ManagerConfig{
		Topology: topo, Defaults: defaults,
		ReplicationInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for n := 0; n < 4; n++ {
		if err := primary.NMDB().Register(n, true, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	primary.NMDB().RecordOffload([]core.Assignment{{Busy: 0, Candidate: 1, Amount: 6}})

	follower, err := NewManager(ManagerConfig{
		Topology: topo, Defaults: defaults, Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// An unpromoted standby refuses placement rounds...
	if _, err := follower.RunPlacement(); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower RunPlacement err = %v, want ErrFollower", err)
	}
	// ...and NACKs client handshakes with a diagnosable reason.
	{
		a, b := proto.Pipe(16)
		go follower.Attach(b)
		if err := a.Send(&proto.Message{
			Type: proto.MsgOffloadCapable, From: 0, To: ManagerNode, Seq: 1, Capable: true,
		}); err != nil {
			t.Fatal(err)
		}
		ack, err := recvMsg(a)
		if err != nil || ack.Type != proto.MsgAck || ack.Error == "" {
			t.Fatalf("standby handshake = %+v, %v; want NACK", ack, err)
		}
		a.Close()
	}

	sb, err := NewStandby(StandbyConfig{
		Manager: follower, Dial: attachDialer(primary),
		PromoteAfter: -1, // manual promotion only
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sbDone := make(chan error, 1)
	go func() { sbDone <- sb.Run(ctx) }()

	// The initial snapshot replicates registry and ledger.
	waitFor(t, func() bool {
		return len(follower.NMDB().Nodes()) == 4 &&
			pairsEqual(pairsOf(follower.NMDB()), pairsOf(primary.NMDB()))
	})

	// A state change ships an incremental snapshot.
	primary.NMDB().RecordOffload([]core.Assignment{{Busy: 0, Candidate: 2, Amount: 4}})
	waitFor(t, func() bool {
		return pairsEqual(pairsOf(follower.NMDB()), pairsOf(primary.NMDB()))
	})

	// Idle periods ship heartbeats, and acks keep the lag at zero.
	heartbeats := follower.Metrics().Counter("dust_standby_heartbeats_total", "")
	waitFor(t, func() bool { return heartbeats.Value() >= 2 })
	waitFor(t, func() bool { return primary.replicationLag() == 0 })
	if sb.Epoch() < 2 {
		t.Errorf("standby epoch = %d, want >= 2 (two snapshots shipped)", sb.Epoch())
	}

	sb.Promote()
	waitFor(t, func() bool { return sb.Promoted() && !follower.IsFollower() })
	if err := <-sbDone; err != nil {
		t.Fatalf("standby Run returned %v after promotion", err)
	}
	if got := follower.Metrics().Counter("dust_manager_promotions_total", "").Value(); got != 1 {
		t.Errorf("promotions counter = %d, want 1", got)
	}

	// The promoted manager accepts handshakes and placement rounds.
	{
		a, b := proto.Pipe(16)
		go follower.Attach(b)
		if err := a.Send(&proto.Message{
			Type: proto.MsgOffloadCapable, From: 3, To: ManagerNode, Seq: 1, Capable: true,
		}); err != nil {
			t.Fatal(err)
		}
		ack, err := recvMsg(a)
		if err != nil || ack.Type != proto.MsgAck || ack.Error != "" {
			t.Fatalf("post-promotion handshake = %+v, %v; want ACK", ack, err)
		}
	}
	if _, err := follower.RunPlacement(); err != nil {
		t.Fatalf("post-promotion RunPlacement: %v", err)
	}
}

func TestStandbyWatchdogPromotesOnSilence(t *testing.T) {
	follower, err := NewManager(ManagerConfig{
		Topology: lineTopology(2),
		Defaults: core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	sb, err := NewStandby(StandbyConfig{
		Manager: follower,
		Dial: func() (proto.Conn, error) {
			return nil, errors.New("primary unreachable")
		},
		PromoteAfter: 60 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sb.Run(ctx) }()
	waitFor(t, func() bool { return sb.Promoted() && !follower.IsFollower() })
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after watchdog promotion", err)
	}
}

// TestDegradedModeDefersAndAdopts drives the grace window on a virtual
// clock: evictions and reclaims are deferred, a Host-Sync for a pair the
// restored ledger lacks is adopted instead of dropped, and the window
// exits by quorum once enough clients re-handshake.
func TestDegradedModeDefersAndAdopts(t *testing.T) {
	clock := newTestClock()
	reg := obs.NewRegistry()
	m, err := NewManager(ManagerConfig{
		Topology:         lineTopology(4),
		Defaults:         core.Thresholds{CMax: 80, COMax: 50, XMin: 2},
		KeepaliveTimeout: 90 * time.Second,
		GraceWindow:      30 * time.Minute,
		ResyncQuorum:     0.5,
		Follower:         true,
		Now:              clock.Now,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	db := m.NMDB()
	for n := 0; n < 4; n++ {
		if err := db.Register(n, true, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.RecordStat(n, 30, 5, 4, clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	db.RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 6},
		{Busy: 0, Candidate: 2, Amount: 6},
	})
	db.RecordKeepalive(1, clock.Now())
	db.RecordKeepalive(2, clock.Now())

	m.Promote()
	if !m.Degraded() {
		t.Fatal("promotion with restored clients did not enter degraded mode")
	}

	// Past the keepalive timeout but inside the grace window: the sweep,
	// disconnect substitution, and reclaim are all deferred.
	clock.Advance(10 * time.Minute)
	subs, err := m.CheckKeepalives()
	if err != nil || subs != nil {
		t.Fatalf("degraded CheckKeepalives = %v, %v; want nil, nil", subs, err)
	}
	if rel := m.ReclaimBusy(0); rel != nil {
		t.Fatalf("degraded ReclaimBusy released %v, want deferral", rel)
	}
	if got := len(db.ActiveAssignments()); got != 2 {
		t.Fatalf("degraded mode lost ledger entries: %d, want 2", got)
	}
	deferrals := reg.Counter("dust_manager_degraded_deferrals_total", "")
	if deferrals.Value() < 2 {
		t.Errorf("deferral counter = %d, want >= 2", deferrals.Value())
	}

	// A destination declaring hosting the ledger lacks is adopted: the
	// checkpoint predates the assignment, the client is the evidence.
	m.handle(3, &proto.Message{
		Type: proto.MsgHostSync, From: 3, To: ManagerNode, Seq: 1,
		BusyNode: 0, AmountPct: 5,
	})
	adopted := pairsOf(db)[pendingKey{busy: 0, dest: 3}]
	if math.Abs(adopted-5) > 1e-9 {
		t.Fatalf("adopted pair 0→3 = %g, want 5", adopted)
	}
	if got := reg.Counter("dust_manager_hostsync_total", "", "result", "adopted").Value(); got != 1 {
		t.Errorf("adopted counter = %d, want 1", got)
	}

	// Two of four restored clients re-handshaking meets the 0.5 quorum.
	rawPeer(t, m, 0, 30, 5)
	rawPeer(t, m, 1, 30, 5)
	if m.Degraded() {
		t.Fatal("quorum of re-handshaked clients did not end degraded mode")
	}
	if got := reg.Counter("dust_manager_degraded_transitions_total", "", "event", "exited_quorum").Value(); got != 1 {
		t.Errorf("exited_quorum counter = %d, want 1", got)
	}
	// The sweep is live again: it must not record another deferral.
	before := deferrals.Value()
	if _, err := m.CheckKeepalives(); err != nil {
		t.Fatal(err)
	}
	if deferrals.Value() != before {
		t.Error("CheckKeepalives still deferred after degraded exit")
	}
}

func TestDegradedModeExpires(t *testing.T) {
	clock := newTestClock()
	reg := obs.NewRegistry()
	m, err := NewManager(ManagerConfig{
		Topology:         lineTopology(4),
		Defaults:         core.Thresholds{CMax: 80, COMax: 50, XMin: 2},
		KeepaliveTimeout: 90 * time.Second,
		GraceWindow:      5 * time.Minute,
		Follower:         true,
		Now:              clock.Now,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for n := 0; n < 4; n++ {
		if err := m.NMDB().Register(n, true, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Promote()
	if !m.Degraded() {
		t.Fatal("not degraded after promotion")
	}
	clock.Advance(6 * time.Minute)
	if m.Degraded() {
		t.Fatal("degraded mode survived past the grace window")
	}
	if got := reg.Counter("dust_manager_degraded_transitions_total", "", "event", "exited_expired").Value(); got != 1 {
		t.Errorf("exited_expired counter = %d, want 1", got)
	}
}

// TestManagerRestartRecovery is the crash-recovery round trip: a manager
// with active offloads checkpoints on shutdown, a new manager on the same
// path restores the ledger, defers evictions while degraded, exits by
// quorum as clients re-handshake, and then substitutes exactly the
// destination that never came back.
func TestManagerRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mgr.ckpt")
	clock := newTestClock()
	topo := lineTopology(4)
	mk := func(reg *obs.Registry) *Manager {
		m, err := NewManager(ManagerConfig{
			Topology:           topo,
			Defaults:           core.Thresholds{CMax: 80, COMax: 50, XMin: 2},
			UpdateIntervalSec:  60,
			KeepaliveTimeout:   90 * time.Second,
			AckTimeout:         time.Second,
			CheckpointPath:     path,
			CheckpointInterval: -1, // shutdown checkpoint only
			GraceWindow:        30 * time.Minute,
			ResyncQuorum:       0.5,
			Now:                clock.Now,
			Metrics:            reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m1 := mk(obs.NewRegistry())
	rawPeer(t, m1, 0, 79, 8)
	rawPeer(t, m1, 1, 30, 5)
	rawPeer(t, m1, 2, 30, 5)
	rawPeer(t, m1, 3, 20, 5)
	m1.NMDB().RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 6, ResponseTimeSec: 1},
		{Busy: 0, Candidate: 2, Amount: 6, ResponseTimeSec: 2},
	})
	m1.NMDB().RecordKeepalive(1, clock.Now())
	m1.NMDB().RecordKeepalive(2, clock.Now())
	m1.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("shutdown did not write a checkpoint: %v", err)
	}

	reg2 := obs.NewRegistry()
	m2 := mk(reg2)
	defer m2.Close()
	if err := m2.RestoreError(); err != nil {
		t.Fatalf("restore error: %v", err)
	}
	if got := reg2.Counter("dust_manager_checkpoint_loads_total", "", "result", "ok").Value(); got != 1 {
		t.Fatalf("checkpoint load ok counter = %d, want 1", got)
	}
	restored := pairsOf(m2.NMDB())
	if len(restored) != 2 || restored[pendingKey{0, 1}] != 6 || restored[pendingKey{0, 2}] != 6 {
		t.Fatalf("restored ledger = %v, want 0→1:6 and 0→2:6", restored)
	}
	if !m2.Degraded() {
		t.Fatal("restored manager did not enter degraded mode")
	}

	// Keepalives restored from the checkpoint are pre-outage; past the
	// timeout the sweep would evict both destinations, so it must defer.
	clock.Advance(10 * time.Minute)
	if subs, err := m2.CheckKeepalives(); err != nil || subs != nil {
		t.Fatalf("degraded CheckKeepalives = %v, %v; want deferral", subs, err)
	}
	if got := len(m2.NMDB().ActiveAssignments()); got != 2 {
		t.Fatalf("deferred sweep still lost ledger entries: %d left", got)
	}

	// Three of four clients return (quorum 0.5); destination 1 proves it
	// is alive with a fresh keepalive, destination 2 stays dark.
	rawPeer(t, m2, 0, 65, 8)
	c1 := rawPeer(t, m2, 1, 30, 5)
	rawPeer(t, m2, 3, 20, 5)
	if err := c1.Send(&proto.Message{
		Type: proto.MsgKeepalive, From: 1, To: ManagerNode, Seq: 9,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, ok := m2.NMDB().Client(1)
		return ok && !rec.LastKeepalive.Before(clock.Now())
	})
	if m2.Degraded() {
		t.Fatal("quorum did not end degraded mode")
	}

	subs, err := m2.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Failed != 2 {
		t.Fatalf("substitutions = %+v, want exactly the stale destination 2", subs)
	}
	final := pairsOf(m2.NMDB())
	total := 0.0
	for k, amt := range final {
		if k.dest == 2 {
			t.Errorf("stale destination 2 still holds %g", amt)
		}
		total += amt
	}
	if math.Abs(total-12) > 1e-6 {
		t.Errorf("total hosted after substitution = %g, want 12", total)
	}
}

func TestClientReconnectAbandonCallback(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology:          lineTopology(2),
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		UpdateIntervalSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	clientEnd, managerEnd := proto.FaultPipe(16, proto.FaultPlan{}, proto.FaultPlan{})
	go mgr.Attach(managerEnd)
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var attempts []int
	var abandonN int
	var abandonErr error
	cl, err := NewClient(ClientConfig{
		Node: 0, Capable: true,
		Resources: func() Resources { return Resources{UtilPct: 30, DataMb: 1, NumAgents: 1} },
		Dial: func() (proto.Conn, error) {
			return nil, errors.New("manager unreachable")
		},
		ReconnectMin:         time.Millisecond,
		ReconnectMax:         4 * time.Millisecond,
		MaxReconnectAttempts: 3,
		OnReconnectAttempt: func(a int, err error) {
			mu.Lock()
			attempts = append(attempts, a)
			mu.Unlock()
		},
		OnAbandon: func(n int, err error) {
			mu.Lock()
			abandonN, abandonErr = n, err
			mu.Unlock()
		},
		Metrics: reg,
	}, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run(ctx) }()

	// Cut the wire; the supervision loop must fail all three redials and
	// give up loudly.
	clientEnd.ForceDisconnect()
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil, want give-up error")
		}
		if want := "gave up reconnecting after 3 attempts"; !strings.Contains(err.Error(), want) {
			t.Fatalf("Run error %q does not mention %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not give up")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Errorf("OnReconnectAttempt saw %v, want [1 2 3]", attempts)
	}
	if abandonN != 3 || abandonErr == nil {
		t.Errorf("OnAbandon(%d, %v), want (3, non-nil)", abandonN, abandonErr)
	}
	if got := reg.Counter("dust_client_reconnect_abandoned_total", "").Value(); got != 1 {
		t.Errorf("abandon counter = %d, want 1", got)
	}
}

func TestClientFailoverToSecondDialer(t *testing.T) {
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	mgrA, err := NewManager(ManagerConfig{
		Topology: lineTopology(2), Defaults: defaults, UpdateIntervalSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgrA.Close()
	mgrB, err := NewManager(ManagerConfig{
		Topology: lineTopology(2), Defaults: defaults, UpdateIntervalSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgrB.Close()

	reg := obs.NewRegistry()
	cfg := ClientConfig{
		Node: 0, Capable: true,
		Resources:        func() Resources { return Resources{UtilPct: 30, DataMb: 1, NumAgents: 1} },
		Dialers:          []func() (proto.Conn, error){attachDialer(mgrA), attachDialer(mgrB)},
		ReconnectMin:     time.Millisecond,
		ReconnectMax:     10 * time.Millisecond,
		HandshakeTimeout: 200 * time.Millisecond,
		Logf:             t.Logf,
		Metrics:          reg,
	}
	conn, err := cfg.Dialers[0]()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(cfg, conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cl.Run(ctx)
	waitFor(t, func() bool {
		_, ok := mgrA.NMDB().Client(0)
		return ok
	})

	// Kill the first manager: attempt 1 retries it (fails), attempt 2
	// rotates to the second and lands.
	mgrA.Close()
	waitFor(t, func() bool {
		_, ok := mgrB.NMDB().Client(0)
		return ok
	})
	waitFor(t, func() bool {
		return reg.Counter("dust_client_failovers_total", "").Value() == 1
	})
}

// TestFailoverConvergence is the headline chaos test for manager high
// availability: a primary serving 100 clients with ≥50 active offloads is
// killed; the warm standby's watchdog promotes it; every client fails over
// via its dialer rotation; and after convergence the promoted manager's
// ledger holds exactly the pre-kill assignment set — nothing lost, nothing
// duplicated — with its first meaningful placement tick passing the
// verify.CheckResult self-audit.
func TestFailoverConvergence(t *testing.T) {
	const (
		n        = 100
		numBusy  = 50 // even nodes
		baseUtil = 92.0
		excess   = baseUtil - 80 // over CMax
	)
	topo := lineTopology(n)
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}

	primary, err := NewManager(ManagerConfig{
		Topology: topo, Defaults: defaults,
		UpdateIntervalSec:   0.05,
		KeepaliveTimeout:    5 * time.Second,
		AckTimeout:          time.Second,
		PlacementRetries:    2,
		ReplicationInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	standbyReg := obs.NewRegistry()
	standby, err := NewManager(ManagerConfig{
		Topology: topo, Defaults: defaults,
		UpdateIntervalSec: 0.05,
		KeepaliveTimeout:  5 * time.Second,
		AckTimeout:        time.Second,
		PlacementRetries:  2,
		Follower:          true,
		VerifyPlacements:  true,
		GraceWindow:       30 * time.Second,
		ResyncQuorum:      0.6,
		Metrics:           standbyReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	// STATs report demand: busy nodes keep reporting their base load across
	// the failover, and each manager's rounds re-affirm the absolute plan.
	var spike atomic.Bool
	resourcesFor := func(node int) func() Resources {
		if node == n-1 {
			// Reserve the last candidate as the post-promotion trigger: it
			// turns busy on demand so the promoted manager has real work
			// for its first verified placement tick.
			return func() Resources {
				if spike.Load() {
					return Resources{UtilPct: 95, DataMb: 4, NumAgents: 6}
				}
				return Resources{UtilPct: 30, DataMb: 4, NumAgents: 6}
			}
		}
		if node%2 == 0 {
			return func() Resources { return Resources{UtilPct: baseUtil, DataMb: 15, NumAgents: 6} }
		}
		return func() Resources { return Resources{UtilPct: 30, DataMb: 4, NumAgents: 6} }
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		cfg := ClientConfig{
			Node: i, Capable: true,
			Resources:        resourcesFor(i),
			Dialers:          []func() (proto.Conn, error){attachDialer(primary), attachDialer(standby)},
			ReconnectMin:     5 * time.Millisecond,
			ReconnectMax:     100 * time.Millisecond,
			HandshakeTimeout: 250 * time.Millisecond,
		}
		conn, err := cfg.Dialers[0]()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewClient(cfg, conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		go cl.Run(ctx)
	}

	sb, err := NewStandby(StandbyConfig{
		Manager:      standby,
		Dial:         attachDialer(primary),
		PromoteAfter: 1500 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go sb.Run(ctx)

	// Phase 1: drive placement until every busy node's excess is hosted
	// and the standby has replicated the full ledger.
	coveredBusy := func(db *NMDB) int {
		perBusy := make(map[int]float64)
		for _, a := range db.ActiveAssignments() {
			perBusy[a.Busy] += a.Amount
		}
		c := 0
		for _, amt := range perBusy {
			if amt >= excess-1e-6 {
				c++
			}
		}
		return c
	}
	deadline := time.Now().Add(45 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("never converged pre-kill: %d/%d busy covered, primary %d pairs, standby %d pairs",
				coveredBusy(primary.NMDB()), numBusy,
				len(pairsOf(primary.NMDB())), len(pairsOf(standby.NMDB())))
		}
		if _, err := primary.RunPlacement(); err != nil {
			t.Fatal(err)
		}
		if coveredBusy(primary.NMDB()) >= numBusy &&
			pairsEqual(pairsOf(primary.NMDB()), pairsOf(standby.NMDB())) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	preKill := pairsOf(primary.NMDB())
	if len(preKill) < numBusy {
		t.Fatalf("only %d active pairs before the kill, want >= %d", len(preKill), numBusy)
	}
	t.Logf("killing primary with %d active pairs across %d busy nodes", len(preKill), numBusy)

	// Phase 2: kill the primary mid-run. The watchdog must promote the
	// standby and every client must rotate onto it.
	primary.Close()
	waitLong(t, 20*time.Second, func() bool { return sb.Promoted() && !standby.IsFollower() })
	waitLong(t, 30*time.Second, func() bool { return !standby.Degraded() })
	waitLong(t, 15*time.Second, func() bool {
		return pairsEqual(pairsOf(standby.NMDB()), preKill)
	})

	// Phase 3: the first meaningful post-promotion tick. A fresh busy node
	// appears; the promoted manager must solve, pass the verify.CheckResult
	// self-audit, and converge the failed-over ledger to its plan: every
	// busy node covered exactly, nothing duplicated.
	spike.Store(true)
	waitLong(t, 10*time.Second, func() bool {
		rec, ok := standby.NMDB().Client(n - 1)
		return ok && rec.UtilPct > 90
	})
	report, err := standby.RunPlacement()
	if err != nil {
		t.Fatalf("post-promotion tick: %v", err)
	}
	if report.Result == nil || len(report.Accepted) == 0 {
		t.Fatalf("post-promotion tick placed nothing: %+v", report)
	}
	if got := standbyReg.Counter("dust_manager_placement_verifications_total", "", "result", "ok").Value(); got == 0 {
		t.Fatal("post-promotion tick did not run the placement self-audit")
	}

	// The round re-plans every busy node from demand, so a pre-kill pair
	// may move; what must hold is that the ledger is exactly the round's
	// pairs in force and covers every busy node's excess exactly.
	final := pairsOf(standby.NMDB())
	inForce := make(map[pendingKey]float64)
	perBusy := make(map[int]float64)
	for _, a := range report.Accepted {
		inForce[pendingKey{busy: a.Busy, dest: a.Candidate}] += a.Amount
		perBusy[a.Busy] += a.Amount
	}
	if !pairsEqual(final, inForce) {
		t.Errorf("ledger after the post-promotion tick = %v, want the round's pairs in force %v", final, inForce)
	}
	for b := 0; b < n-1; b += 2 {
		if math.Abs(perBusy[b]-excess) > 1e-6 {
			t.Errorf("busy node %d covered %g after failover, want %g", b, perBusy[b], float64(excess))
		}
	}
	if math.Abs(perBusy[n-1]-15) > 1e-6 {
		t.Errorf("spiked node %d covered %g, want 15", n-1, perBusy[n-1])
	}
	t.Logf("post-promotion tick: %d pairs in force, %d kept from the failed-over ledger, %d released",
		len(report.Accepted), report.Kept, len(report.Released))
}
