package cluster

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/proto"
)

// testClock is an injectable virtual clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// testHarness wires a manager and N clients over in-memory pipes.
type testHarness struct {
	t       *testing.T
	manager *Manager
	clock   *testClock
	clients map[int]*Client
	// utils holds each client's scripted utilization, read by Resources.
	mu    sync.Mutex
	utils map[int]float64
	data  map[int]float64
}

// recvMsg receives the next message into fresh storage.
func recvMsg(c proto.Conn) (*proto.Message, error) {
	m := new(proto.Message)
	if err := c.Recv(m); err != nil {
		return nil, err
	}
	return m, nil
}

func lineTopology(n int) *graph.Graph {
	g := graph.Line(n, 100)
	for i := 0; i < g.NumEdges(); i++ {
		g.SetUtilization(graph.EdgeID(i), 0.5)
	}
	return g
}

func newHarness(t *testing.T, topo *graph.Graph, clientCfgs []ClientConfig) *testHarness {
	t.Helper()
	return newHarnessWith(t, topo, nil, clientCfgs)
}

// newHarnessWith lets a test adjust the manager configuration (retries,
// metrics registry, timeouts) before the manager is built.
func newHarnessWith(t *testing.T, topo *graph.Graph, tweak func(*ManagerConfig), clientCfgs []ClientConfig) *testHarness {
	t.Helper()
	clock := newTestClock()
	cfg := ManagerConfig{
		Topology:          topo,
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 10},
		UpdateIntervalSec: 60,
		KeepaliveTimeout:  90 * time.Second,
		AckTimeout:        2 * time.Second,
		Now:               clock.Now,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &testHarness{
		t: t, manager: mgr, clock: clock,
		clients: make(map[int]*Client),
		utils:   make(map[int]float64),
		data:    make(map[int]float64),
	}
	t.Cleanup(mgr.Close)

	for _, cfg := range clientCfgs {
		h.attach(cfg)
	}
	return h
}

// attach connects a client to the harness manager over an in-memory pipe,
// completes its handshake, and starts its reader loop.
func (h *testHarness) attach(cfg ClientConfig) {
	t := h.t
	node := cfg.Node
	if cfg.Resources == nil {
		cfg.Resources = func() Resources {
			h.mu.Lock()
			defer h.mu.Unlock()
			return Resources{UtilPct: h.utils[node], DataMb: h.data[node], NumAgents: 10}
		}
	}
	clientEnd, managerEnd := proto.Pipe(16)
	cl, err := NewClient(cfg, clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := h.manager.Attach(managerEnd)
		done <- err
	}()
	if err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h.clients[node] = cl
	// Reader loop so the client answers Offload-Requests during
	// synchronous RunPlacement calls.
	go func() {
		for {
			if _, err := cl.Step(); err != nil {
				return
			}
		}
	}()
}

func (h *testHarness) setUtil(node int, util, dataMb float64) {
	h.mu.Lock()
	h.utils[node] = util
	h.data[node] = dataMb
	h.mu.Unlock()
	if err := h.clients[node].SendStat(); err != nil {
		h.t.Fatal(err)
	}
	// STAT is handled asynchronously by the manager's reader; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := h.manager.NMDB().Client(node)
		if ok && rec.UtilPct == util {
			return
		}
		time.Sleep(time.Millisecond)
	}
	h.t.Fatalf("STAT from node %d never recorded", node)
}

func TestHandshakeRegistersClient(t *testing.T) {
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true, CMax: 85, COMax: 40},
		{Node: 1, Capable: false},
	})
	rec, ok := h.manager.NMDB().Client(0)
	if !ok || !rec.Capable || rec.CMax != 85 || rec.COMax != 40 {
		t.Fatalf("record = %+v ok=%v", rec, ok)
	}
	rec, ok = h.manager.NMDB().Client(1)
	if !ok || rec.Capable {
		t.Fatalf("non-capable client mis-registered: %+v", rec)
	}
	if got := h.clients[0].UpdateInterval(); got != 60 {
		t.Fatalf("update interval = %g, want 60", got)
	}
	if nodes := h.manager.NMDB().Nodes(); len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestStatDrivesState(t *testing.T) {
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	h.setUtil(2, 65, 0)
	state := h.manager.NMDB().BuildState(h.manager.cfg.Defaults)
	if state.Util[0] != 92 || state.DataMb[0] != 50 {
		t.Fatalf("state node 0 = %g/%g", state.Util[0], state.DataMb[0])
	}
	cls, err := h.manager.classify(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Busy) != 1 || cls.Busy[0] != 0 {
		t.Fatalf("busy = %v", cls.Busy)
	}
	if len(cls.Candidates) != 1 || cls.Candidates[0] != 1 {
		t.Fatalf("candidates = %v", cls.Candidates)
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	redirected := make(chan float64, 1)
	hosted := make(chan int, 1)
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true, OnRedirect: func(amount float64, route []int32) {
			redirected <- amount
		}},
		{Node: 1, Capable: true, OnHost: func(busy int, amount float64, route []int32) bool {
			hosted <- busy
			return true
		}},
		{Node: 2, Capable: true},
	})
	h.setUtil(0, 92, 50) // Cs = 12
	h.setUtil(1, 30, 0)  // Cd = 20
	h.setUtil(2, 65, 0)  // neutral

	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil || report.Result.Status != core.StatusOptimal {
		t.Fatalf("report = %+v", report)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}
	if math.Abs(report.Accepted[0].Amount-12) > 1e-9 {
		t.Fatalf("amount = %g, want 12", report.Accepted[0].Amount)
	}

	select {
	case b := <-hosted:
		if b != 0 {
			t.Fatalf("hosted busy = %d, want 0", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("destination never saw the hosting request")
	}
	select {
	case amt := <-redirected:
		if math.Abs(amt-12) > 1e-9 {
			t.Fatalf("redirect amount = %g, want 12", amt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("busy node never told to redirect")
	}

	ledger := h.manager.NMDB().ActiveAssignments()
	if len(ledger) != 1 || ledger[0].Busy != 0 || ledger[0].Candidate != 1 {
		t.Fatalf("ledger = %+v", ledger)
	}
	if !h.clients[1].IsDestination() {
		t.Fatal("destination client should report hosting")
	}
	if dests := h.manager.NMDB().Destinations(); len(dests) != 1 || dests[0] != 1 {
		t.Fatalf("destinations = %v", dests)
	}
	// Roles assigned.
	rec, _ := h.manager.NMDB().Client(0)
	if rec.Role != core.RoleBusy {
		t.Fatalf("role = %v, want busy", rec.Role)
	}
}

func TestPlacementDecline(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnHost: func(int, float64, []int32) bool { return false }},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Declined) != 1 || len(report.Accepted) != 0 {
		t.Fatalf("report = accepted %d / declined %d", len(report.Accepted), len(report.Declined))
	}
	if len(h.manager.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("declined assignment must not enter the ledger")
	}
}

func TestPlacementNoBusyNodes(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 30, 0)
	h.setUtil(1, 30, 0)
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if report.Result != nil || len(report.Accepted) != 0 {
		t.Fatalf("idle network should produce an empty report, got %+v", report)
	}
}

func TestPlacementInfeasible(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 99, 50) // Cs = 19
	h.setUtil(1, 45, 0)  // Cd = 5
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if report.Result == nil || report.Result.Status != core.StatusInfeasible {
		t.Fatalf("want infeasible result, got %+v", report.Result)
	}
}

func TestKeepaliveSubstitution(t *testing.T) {
	replicaNotified := make(chan int, 1)
	h := newHarness(t, lineTopology(4), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true, OnReplica: func(busy, failed int, amount float64) {
			replicaNotified <- failed
		}},
		{Node: 3, Capable: true},
	})
	h.setUtil(0, 92, 50) // busy, Cs = 12
	h.setUtil(1, 30, 0)  // candidate (1 hop)
	h.setUtil(2, 20, 0)  // candidate (2 hops) — the replica
	h.setUtil(3, 65, 0)  // neutral

	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}

	// Node 1 keepalives once, then goes silent past the timeout while the
	// replica candidate stays fresh.
	if err := h.clients[1].SendKeepalive(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, _ := h.manager.NMDB().Client(1)
		return !rec.LastKeepalive.IsZero()
	})
	// The origin's demand eases to exactly CMax: it still classifies busy
	// (Cs = 0), so replica selection prices routes from it.
	h.setUtil(0, 80, 50)
	h.clock.Advance(120 * time.Second)

	subs, err := h.manager.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("substitutions = %+v, want 1", subs)
	}
	s := subs[0]
	if s.Failed != 1 || s.Busy != 0 || s.Replica != 2 || !s.Notified {
		t.Fatalf("substitution = %+v, want failed=1 busy=0 replica=2 notified", s)
	}
	select {
	case failed := <-replicaNotified:
		if failed != 1 {
			t.Fatalf("replica told failed=%d, want 1", failed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("replica never received REP")
	}
	// Ledger moved to the replica.
	ledger := h.manager.NMDB().ActiveAssignments()
	if len(ledger) != 1 || ledger[0].Candidate != 2 {
		t.Fatalf("ledger = %+v", ledger)
	}
	waitFor(t, func() bool { return h.clients[2].IsDestination() })
}

func TestReclaimBusy(t *testing.T) {
	released := make(chan int, 1)
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnRelease: func(busy int) { released <- busy }},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.clients[1].IsDestination() })

	got := h.manager.ReclaimBusy(0)
	if len(got) != 1 {
		t.Fatalf("released = %+v", got)
	}
	select {
	case busy := <-released:
		if busy != 0 {
			t.Fatalf("released busy = %d, want 0", busy)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("destination never saw the release")
	}
	waitFor(t, func() bool { return !h.clients[1].IsDestination() })
	if len(h.manager.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("ledger should be empty after reclaim")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestManagerRejectsBadConfig(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("manager without topology accepted")
	}
	if _, err := NewManager(ManagerConfig{
		Topology: graph.Ring(3, 100),
		Defaults: core.Thresholds{CMax: 10, COMax: 50},
	}); err == nil {
		t.Fatal("bad defaults accepted")
	}
}

func TestClientRejectsMissingResources(t *testing.T) {
	a, _ := proto.Pipe(1)
	if _, err := NewClient(ClientConfig{Node: 0}, a); err == nil {
		t.Fatal("client without resources accepted")
	}
}

func TestAttachRejectsWrongFirstMessage(t *testing.T) {
	topo := lineTopology(2)
	mgr, err := NewManager(ManagerConfig{
		Topology: topo,
		Defaults: core.Thresholds{CMax: 80, COMax: 50, XMin: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, b := proto.Pipe(1)
	go a.Send(&proto.Message{Type: proto.MsgStat, From: 0})
	if _, err := mgr.Attach(b); err == nil {
		t.Fatal("non-handshake first message accepted")
	}
	// Out-of-topology node.
	a2, b2 := proto.Pipe(1)
	go a2.Send(&proto.Message{Type: proto.MsgOffloadCapable, From: 99})
	if _, err := mgr.Attach(b2); err == nil {
		t.Fatal("out-of-topology node accepted")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	topo := lineTopology(2)
	clock := newTestClock()
	mgr, err := NewManager(ManagerConfig{
		Topology:          topo,
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 10},
		UpdateIntervalSec: 0.05, // fast cadence for the test
		AckTimeout:        2 * time.Second,
		Now:               clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	l, err := proto.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	start := func(cfg ClientConfig) *Client {
		conn, err := proto.Dial(l.Addr())
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Run(ctx)
		}()
		return cl
	}
	start(ClientConfig{
		Node: 0, Capable: true,
		Resources: func() Resources { return Resources{UtilPct: 90, DataMb: 40, NumAgents: 10} },
	})
	start(ClientConfig{
		Node: 1, Capable: true,
		Resources: func() Resources { return Resources{UtilPct: 25, NumAgents: 10} },
	})

	// Wait for both STATs to arrive over real TCP.
	waitFor(t, func() bool {
		r0, ok0 := mgr.NMDB().Client(0)
		r1, ok1 := mgr.NMDB().Client(1)
		return ok0 && ok1 && r0.UtilPct == 90 && r1.UtilPct == 25
	})
	report, err := mgr.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}
	cancel()
	wg.Wait()
}

func TestKeepaliveSubstitutionAfterBusyRecovers(t *testing.T) {
	// The origin's STAT already shows the relieved (non-busy) level when
	// the destination fails, exercising the direct replica scan rather
	// than the classification-based one.
	h := newHarness(t, lineTopology(4), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	h.setUtil(2, 20, 0)
	h.setUtil(3, 65, 0)
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}
	// Origin now reports the post-offload level (below CMax).
	h.setUtil(0, 79, 50)
	h.clock.Advance(10 * time.Minute)
	subs, err := h.manager.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Replica != 2 {
		t.Fatalf("substitutions = %+v, want replica 2 via direct scan", subs)
	}
}

func TestKeepaliveNoReplicaAvailable(t *testing.T) {
	// No candidate has capacity for the displaced load: substitution
	// reports Replica = -1 and the ledger drops the assignment.
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(10 * time.Minute)
	subs, err := h.manager.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Replica != -1 {
		t.Fatalf("substitutions = %+v, want failed substitution", subs)
	}
	if len(h.manager.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("failed destination's assignments should leave the ledger")
	}
}

func TestFreshKeepaliveSuppressesSubstitution(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(60 * time.Second) // inside the 90 s timeout
	if err := h.clients[1].SendKeepalive(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, _ := h.manager.NMDB().Client(1)
		return !rec.LastKeepalive.IsZero()
	})
	h.clock.Advance(60 * time.Second) // still within timeout of the beacon
	subs, err := h.manager.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Fatalf("healthy destination substituted: %+v", subs)
	}
}

func TestNMDBReleaseBusyPartial(t *testing.T) {
	topo := lineTopology(4)
	db := NewNMDB(topo)
	for i := 0; i < 4; i++ {
		if err := db.Register(i, true, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	db.RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 5},
		{Busy: 3, Candidate: 1, Amount: 7},
	})
	released := db.ReleaseBusy(0)
	if len(released) != 1 || released[0].Amount != 5 {
		t.Fatalf("released = %+v", released)
	}
	// Node 3's hosting at node 1 survives.
	remaining := db.ActiveAssignments()
	if len(remaining) != 1 || remaining[0].Busy != 3 {
		t.Fatalf("remaining = %+v", remaining)
	}
	rec, _ := db.Client(1)
	if len(rec.HostingFor) != 1 || rec.HostingFor[0] != 3 {
		t.Fatalf("hosting-for = %v, want [3]", rec.HostingFor)
	}
}

func TestNMDBRejectsUnknownNodes(t *testing.T) {
	db := NewNMDB(lineTopology(2))
	if err := db.Register(5, true, 0, 0); err == nil {
		t.Fatal("out-of-topology registration accepted")
	}
	if err := db.RecordStat(0, 50, 0, 0, time.Now()); err == nil {
		t.Fatal("STAT from unregistered node accepted")
	}
	if err := db.RecordKeepalive(0, time.Now()); err == nil {
		t.Fatal("keepalive from unregistered node accepted")
	}
}

func TestNMDBSnapshotRoundTrip(t *testing.T) {
	topo := lineTopology(4)
	db := NewNMDB(topo)
	for i := 0; i < 3; i++ {
		if err := db.Register(i, true, 85, 45); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Unix(5000, 0)
	db.RecordStat(0, 91, 40, 10, at)
	db.RecordKeepalive(1, at)
	db.SetRole(0, core.RoleBusy)
	db.RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 11, ResponseTimeSec: 2.5},
	})

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewNMDB(lineTopology(4))
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rec, ok := restored.Client(0)
	if !ok || rec.UtilPct != 91 || rec.CMax != 85 || rec.Role != core.RoleBusy || !rec.LastStat.Equal(at) {
		t.Fatalf("restored record = %+v", rec)
	}
	rec1, _ := restored.Client(1)
	if !rec1.LastKeepalive.Equal(at) || len(rec1.HostingFor) != 1 || rec1.HostingFor[0] != 0 {
		t.Fatalf("restored destination record = %+v", rec1)
	}
	ledger := restored.ActiveAssignments()
	if len(ledger) != 1 || ledger[0].Amount != 11 || ledger[0].ResponseTimeSec != 2.5 {
		t.Fatalf("restored ledger = %+v", ledger)
	}
}

func TestNMDBSnapshotRejectsCorruption(t *testing.T) {
	db := NewNMDB(lineTopology(2))
	if err := db.LoadSnapshot(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := db.LoadSnapshot(bytes.NewBufferString(`{"version": 99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if err := db.LoadSnapshot(bytes.NewBufferString(
		`{"version": 1, "clients": [{"node": 9}]}`)); err == nil {
		t.Fatal("out-of-topology client accepted")
	}
	if err := db.LoadSnapshot(bytes.NewBufferString(
		`{"version": 1, "active": [{"busy": 0, "candidate": 1, "amount": -2}]}`)); err == nil {
		t.Fatal("negative amount accepted")
	}
}

func TestPlacementTimedOutWhenDestinationDisconnected(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	// Tear the destination's connection down before the placement so its
	// Offload-Request cannot be delivered.
	h.manager.mu.Lock()
	conn := h.manager.conns[1]
	h.manager.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		h.manager.mu.Lock()
		defer h.manager.mu.Unlock()
		_, still := h.manager.conns[1]
		return !still
	})

	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.TimedOut) != 1 || len(report.Accepted) != 0 {
		t.Fatalf("report = %+v, want the assignment timed out", report)
	}
	if len(h.manager.NMDB().ActiveAssignments()) != 0 {
		t.Fatal("undelivered assignment must not enter the ledger")
	}
}

// A destination that disconnects is substituted on its session goroutine
// (connLost → substituteDest → classify) while placement rounds run on
// another; the two paths must share no unguarded state. Run with -race.
func TestDisconnectDuringPlacement(t *testing.T) {
	topo := lineTopology(4)
	h := newHarness(t, topo, []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
	})
	h.setUtil(0, 92, 50) // busy
	h.setUtil(1, 30, 0)  // candidate (1 hop)
	h.setUtil(2, 20, 0)  // candidate (2 hops) — the replica
	h.setUtil(3, 65, 0)  // neutral
	report, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 1 {
		t.Fatalf("accepted = %+v", report.Accepted)
	}
	// A topology edit (same value, new version) leaves both paths with a
	// graph version that no round has seen yet.
	topo.SetUtilization(0, topo.Edge(0).Utilization)

	stop := make(chan struct{})
	rounds := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				rounds <- nil
				return
			default:
			}
			if _, err := h.manager.RunPlacement(); err != nil {
				rounds <- err
				return
			}
		}
	}()
	h.manager.mu.Lock()
	conn := h.manager.conns[1]
	h.manager.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		for _, a := range h.manager.NMDB().ActiveAssignments() {
			if a.Candidate == 1 {
				return false
			}
		}
		return true
	})
	close(stop)
	if err := <-rounds; err != nil {
		t.Fatal(err)
	}
}

// classify runs on session goroutines (replica selection) as well as in
// placement rounds, without tickMu: concurrent calls must not race, even
// on a graph version neither has seen. Run with -race.
func TestClassifyConcurrent(t *testing.T) {
	topo := lineTopology(4)
	h := newHarness(t, topo, []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	for range 20 {
		topo.SetUtilization(0, topo.Edge(0).Utilization)
		state := h.manager.NMDB().BuildState(h.manager.cfg.Defaults)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = h.manager.classify(state)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClientHostingView(t *testing.T) {
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 90, 50)
	h.setUtil(1, 20, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return h.clients[1].IsDestination() })
	hosting := h.clients[1].Hosting()
	if len(hosting) != 1 || math.Abs(hosting[0]-10) > 1e-9 {
		t.Fatalf("hosting = %v, want {0: 10}", hosting)
	}
	// The returned map is a copy.
	hosting[0] = 999
	if h.clients[1].Hosting()[0] == 999 {
		t.Fatal("Hosting returned a live reference")
	}
}
