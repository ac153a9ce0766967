package cluster

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// offloadRequestsAt counts the Offload-Request frames a client received
// (hosting requests and releases), from its own ConnMetrics registry.
func offloadRequestsAt(reg *obs.Registry) uint64 {
	return reg.Counter("dust_proto_recv_total", "", "role", "client", "type", "offload-request").Value()
}

// ledgerMap collapses the ledger into per-pair amounts.
func ledgerMap(m *Manager) map[pendingKey]float64 {
	out := make(map[pendingKey]float64)
	for _, a := range m.NMDB().ActiveAssignments() {
		out[pendingKey{busy: a.Busy, dest: a.Candidate}] += a.Amount
	}
	return out
}

// hostingMap collects every client's hosting into per-pair amounts.
func hostingMap(clients map[int]*Client) map[pendingKey]float64 {
	out := make(map[pendingKey]float64)
	for dest, cl := range clients {
		for busy, amt := range cl.Hosting() {
			out[pendingKey{busy: busy, dest: dest}] = amt
		}
	}
	return out
}

func samePairMaps(a, b map[pendingKey]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Abs(v-w) > 1e-9 {
			return false
		}
	}
	return true
}

// waitLedgerMatchesHosting waits until the ledger and the clients' hosting
// agree pair for pair (release frames carry no ACK, so they land after
// RunPlacement returns).
func waitLedgerMatchesHosting(t *testing.T, m *Manager, clients map[int]*Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !samePairMaps(ledgerMap(m), hostingMap(clients)) {
		if time.Now().After(deadline) {
			t.Fatalf("ledger %v never matched client hosting %v", ledgerMap(m), hostingMap(clients))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSteadyRoundKeepsPairs: two rounds over unchanged demand. Offers are
// absolute, so the ledger and the destinations hold the plan's amounts
// once, not twice, and the second round sends the destinations no
// Offload-Request at all — it keeps every pair and only re-redirects.
func TestSteadyRoundKeepsPairs(t *testing.T) {
	regs := map[int]*obs.Registry{1: obs.NewRegistry(), 2: obs.NewRegistry()}
	var redirMu sync.Mutex
	var redirected []float64
	h := newHarness(t, lineTopology(4), []ClientConfig{
		{Node: 0, Capable: true, OnRedirect: func(amount float64, _ []int32) {
			redirMu.Lock()
			redirected = append(redirected, amount)
			redirMu.Unlock()
		}},
		{Node: 1, Capable: true, Metrics: regs[1]},
		{Node: 2, Capable: true, Metrics: regs[2]},
		{Node: 3, Capable: true},
	})
	h.setUtil(0, 92, 50) // Cs = 12
	h.setUtil(1, 45, 0)  // Cd = 5: the nearest candidate takes a share
	h.setUtil(2, 30, 0)  // Cd = 20: the rest
	h.setUtil(3, 65, 0)  // neutral

	first, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Accepted) != 2 || first.Kept != 0 {
		t.Fatalf("first round = %+v, want two new pairs", first)
	}
	plan := make(map[pendingKey]float64)
	for _, a := range first.Accepted {
		plan[pendingKey{busy: a.Busy, dest: a.Candidate}] = a.Amount
	}
	requests := offloadRequestsAt(regs[1]) + offloadRequestsAt(regs[2])
	if requests != 2 {
		t.Fatalf("first round sent the destinations %d Offload-Requests, want 2", requests)
	}

	second, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if second.Kept != 2 || len(second.Accepted) != 2 || len(second.Released) != 0 {
		t.Fatalf("second round = %+v, want both pairs kept", second)
	}
	if got := offloadRequestsAt(regs[1]) + offloadRequestsAt(regs[2]); got != requests {
		t.Fatalf("second round sent the destinations %d Offload-Requests, want 0", got-requests)
	}
	if ledger := ledgerMap(h.manager); !samePairMaps(ledger, plan) {
		t.Fatalf("ledger = %v, want the plan %v", ledger, plan)
	}
	waitLedgerMatchesHosting(t, h.manager, map[int]*Client{1: h.clients[1], 2: h.clients[2]})
	// Both rounds redirected the busy node once per pair in force.
	waitFor(t, func() bool {
		redirMu.Lock()
		defer redirMu.Unlock()
		return len(redirected) == 4
	})
	redirMu.Lock()
	sum := redirected[2] + redirected[3]
	redirMu.Unlock()
	if math.Abs(sum-12) > 1e-9 {
		t.Fatalf("second round redirected %g, want the excess 12", sum)
	}
}

// TestRestoredLedgerKeepsPairs: a checkpoint carries each pair's route,
// so the first round of a manager restored from it, over unchanged STATs,
// keeps every pair and sends the destinations no Offload-Request. Without
// the routes every restored pair would read as resized and be re-offered.
func TestRestoredLedgerKeepsPairs(t *testing.T) {
	clients := []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
	}
	utils := [][2]float64{{92, 50}, {45, 0}, {30, 0}, {65, 0}}
	h1 := newHarness(t, lineTopology(4), clients)
	for node, u := range utils {
		h1.setUtil(node, u[0], u[1])
	}
	first, err := h1.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Accepted) != 2 {
		t.Fatalf("first round = %+v, want two pairs", first)
	}
	var ckpt bytes.Buffer
	if err := h1.manager.NMDB().SaveSnapshot(&ckpt); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, lineTopology(4), nil)
	if err := h2.manager.NMDB().LoadSnapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	regs := map[int]*obs.Registry{1: obs.NewRegistry(), 2: obs.NewRegistry()}
	for _, cfg := range clients {
		cfg.Metrics = regs[cfg.Node]
		h2.attach(cfg)
	}
	for node, u := range utils {
		h2.setUtil(node, u[0], u[1])
	}
	rep, err := h2.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(change string) uint64 {
		return h2.manager.Metrics().Counter("dust_manager_pairs_total", "", "change", change).Value()
	}
	if rep.Kept != 2 || pairs("kept") != 2 || pairs("new") != 0 || pairs("resized") != 0 || pairs("released") != 0 {
		t.Fatalf("restored round kept %d pairs (kept %d, new %d, resized %d, released %d), want both kept",
			rep.Kept, pairs("kept"), pairs("new"), pairs("resized"), pairs("released"))
	}
	if got := offloadRequestsAt(regs[1]) + offloadRequestsAt(regs[2]); got != 0 {
		t.Fatalf("restored round sent the destinations %d Offload-Requests, want 0", got)
	}
}

// TestResizeReoffersOnlyItsPairs: when one busy node's demand moves, only
// its pair is re-offered (with the new absolute amount); the other busy
// node's pair is kept without an Offload-Request.
func TestResizeReoffersOnlyItsPairs(t *testing.T) {
	regs := map[int]*obs.Registry{1: obs.NewRegistry(), 4: obs.NewRegistry()}
	h := newHarness(t, lineTopology(6), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, Metrics: regs[1]},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
		{Node: 4, Capable: true, Metrics: regs[4]},
		{Node: 5, Capable: true},
	})
	h.setUtil(0, 92, 50) // Cs = 12 → node 1
	h.setUtil(1, 30, 0)
	h.setUtil(2, 65, 0)
	h.setUtil(3, 65, 0)
	h.setUtil(4, 30, 0)
	h.setUtil(5, 90, 50) // Cs = 10 → node 4
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	before1, before4 := offloadRequestsAt(regs[1]), offloadRequestsAt(regs[4])

	h.setUtil(5, 94, 50) // Cs = 14
	rep, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 1 || len(rep.Accepted) != 2 {
		t.Fatalf("report = %+v, want node 0's pair kept and node 5's resized", rep)
	}
	if got := offloadRequestsAt(regs[1]) - before1; got != 0 {
		t.Fatalf("node 1 received %d Offload-Requests for an unchanged pair, want 0", got)
	}
	if got := offloadRequestsAt(regs[4]) - before4; got != 1 {
		t.Fatalf("node 4 received %d Offload-Requests for the resize, want 1", got)
	}
	want := map[pendingKey]float64{{busy: 0, dest: 1}: 12, {busy: 5, dest: 4}: 14}
	if ledger := ledgerMap(h.manager); !samePairMaps(ledger, want) {
		t.Fatalf("ledger = %v, want %v", ledger, want)
	}
	waitLedgerMatchesHosting(t, h.manager, map[int]*Client{1: h.clients[1], 4: h.clients[4]})
}

// TestRoleFlipReleasesOldDestination: the busy origin and its destination
// swap roles. The round plans the new direction and releases the old pair,
// whose destination is told to drop the hosted workload.
func TestRoleFlipReleasesOldDestination(t *testing.T) {
	released := make(chan int, 1)
	h := newHarness(t, lineTopology(2), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnRelease: func(busy int) { released <- busy }},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 50)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}

	h.setUtil(0, 30, 50)
	h.setUtil(1, 92, 50)
	rep, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Released) != 1 || rep.Released[0].Busy != 0 || rep.Released[0].Candidate != 1 {
		t.Fatalf("released = %+v, want the old pair 0→1", rep.Released)
	}
	select {
	case busy := <-released:
		if busy != 0 {
			t.Fatalf("node 1 released busy %d, want 0", busy)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("old destination never saw the release")
	}
	want := map[pendingKey]float64{{busy: 1, dest: 0}: 12}
	if ledger := ledgerMap(h.manager); !samePairMaps(ledger, want) {
		t.Fatalf("ledger = %v, want %v", ledger, want)
	}
	waitLedgerMatchesHosting(t, h.manager, h.clients)
}

// TestDeclinedResizeKeepsOldAmount: a destination that declines a resize
// did not apply it, so its pair stays in force at the old amount (ledger,
// client and redirect agree), and only the shortfall is re-offered.
func TestDeclinedResizeKeepsOldAmount(t *testing.T) {
	var declineResizes atomic.Bool
	h := newHarnessWith(t, lineTopology(3), func(cfg *ManagerConfig) {
		cfg.PlacementRetries = 1
	}, []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, OnHost: func(int, float64, []int32) bool { return !declineResizes.Load() }},
		{Node: 2, Capable: true},
	})
	h.setUtil(0, 92, 50) // Cs = 12 → node 1
	h.setUtil(1, 30, 0)
	h.setUtil(2, 20, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}

	declineResizes.Store(true)
	h.setUtil(0, 95, 50) // Cs = 15: node 1 is asked for 15 and declines
	rep, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	want := map[pendingKey]float64{{busy: 0, dest: 1}: 12, {busy: 0, dest: 2}: 3}
	inForce := make(map[pendingKey]float64)
	for _, a := range rep.Accepted {
		inForce[pendingKey{busy: a.Busy, dest: a.Candidate}] = a.Amount
	}
	if !samePairMaps(inForce, want) {
		t.Fatalf("pairs in force = %v, want the old 12 kept on node 1 and the shortfall 3 on node 2", inForce)
	}
	if len(rep.Retried) != 1 || math.Abs(rep.Retried[0].Amount-3) > 1e-9 || rep.Abandoned() != 0 {
		t.Fatalf("report = %+v, want only the shortfall retried", rep)
	}
	if ledger := ledgerMap(h.manager); !samePairMaps(ledger, want) {
		t.Fatalf("ledger = %v, want %v", ledger, want)
	}
	waitLedgerMatchesHosting(t, h.manager, map[int]*Client{1: h.clients[1], 2: h.clients[2]})
}

// TestDegradedRoundNeitherKeepsNorReleases: while degraded the ledger may
// be a stale checkpoint, so a round re-offers every planned pair and
// withdraws nothing.
func TestDegradedRoundNeitherKeepsNorReleases(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, lineTopology(3), []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true, Metrics: reg},
		{Node: 2, Capable: true},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	h.setUtil(2, 65, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	h.manager.enterDegraded()

	before := offloadRequestsAt(reg)
	rep, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 0 || offloadRequestsAt(reg)-before != 1 {
		t.Fatalf("degraded round kept %d pairs and sent %d requests, want 0 and 1", rep.Kept, offloadRequestsAt(reg)-before)
	}

	h.setUtil(0, 60, 50) // no longer busy
	rep, err = h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Released) != 0 || len(h.manager.NMDB().ActiveAssignments()) != 1 {
		t.Fatalf("degraded round released %+v, want nothing", rep.Released)
	}
}

// TestSilentOriginHeld: an origin silent past the staleness horizon
// classifies neutral, but the round holds its offload instead of
// releasing it on data it does not have.
func TestSilentOriginHeld(t *testing.T) {
	h := newHarnessWith(t, lineTopology(2), func(cfg *ManagerConfig) {
		cfg.StalenessHorizon = 30 * time.Second
	}, []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 92, 50)
	h.setUtil(1, 30, 0)
	if _, err := h.manager.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(time.Minute)
	h.setUtil(1, 30, 0) // the destination keeps reporting; the origin is silent
	rep, err := h.manager.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Released) != 0 || len(h.manager.NMDB().ActiveAssignments()) != 1 {
		t.Fatalf("silent origin's offload released: %+v", rep.Released)
	}
}

// ackDropper drops every second Offload-ACK the manager would receive,
// across all connections it wraps — deterministic loss on exactly the
// frame the dispatch diff depends on.
type ackDropper struct {
	proto.Conn
	acks *atomic.Uint64
}

func (d ackDropper) Recv(msg *proto.Message) error {
	for {
		err := d.Conn.Recv(msg)
		if err != nil || msg.Type != proto.MsgOffloadAck || d.acks.Add(1)%2 == 1 {
			return err
		}
	}
}

// Buffered promises nothing: the buffered frame may be an ACK that Recv
// drops, after which it would block.
func (d ackDropper) Buffered() int { return 0 }

// TestDroppedAcksLeaveLedgerExact: every second Offload-ACK is lost and
// clients never send Host-Sync, so nothing but the round's own rules
// (timed-out offers released, retries onto other candidates) can keep the
// ledger honest. Across rounds of changing demand the ledger must equal
// the clients' hosting exactly, and the busy node's excess stay covered.
func TestDroppedAcksLeaveLedgerExact(t *testing.T) {
	mgr, err := NewManager(ManagerConfig{
		Topology:         lineTopology(6),
		Defaults:         core.Thresholds{CMax: 80, COMax: 50, XMin: 1},
		AckTimeout:       50 * time.Millisecond,
		PlacementRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	var acks atomic.Uint64
	var mu sync.Mutex
	utils := map[int]float64{0: 92, 1: 30, 2: 30, 3: 30, 4: 30, 5: 65}
	clients := make(map[int]*Client)
	for node := 0; node < 6; node++ {
		node := node
		clientEnd, managerEnd := proto.Pipe(16)
		cl, err := NewClient(ClientConfig{
			Node: node, Capable: true,
			Resources: func() Resources {
				mu.Lock()
				defer mu.Unlock()
				return Resources{UtilPct: utils[node], DataMb: 30, NumAgents: 5}
			},
		}, clientEnd)
		if err != nil {
			t.Fatal(err)
		}
		go mgr.Attach(ackDropper{Conn: managerEnd, acks: &acks})
		if err := cl.Handshake(); err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := cl.Step(); err != nil {
					return
				}
			}
		}()
		clients[node] = cl
	}
	report := func(node int, util float64) {
		mu.Lock()
		utils[node] = util
		mu.Unlock()
		if err := clients[node].SendStat(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			rec, ok := mgr.NMDB().Client(node)
			return ok && rec.UtilPct == util
		})
	}
	for node := 1; node < 6; node++ {
		report(node, utils[node])
	}

	for round, util := range []float64{92, 95, 88, 92, 99, 85, 92} {
		report(0, util)
		rep, err := mgr.RunPlacement()
		if err != nil {
			t.Fatal(err)
		}
		waitLedgerMatchesHosting(t, mgr, clients)
		covered := 0.0
		for _, a := range rep.Accepted {
			covered += a.Amount
		}
		if math.Abs(covered-(util-80)) > 1e-9 || rep.Abandoned() != 0 {
			t.Fatalf("round %d: covered %g of excess %g (report %+v)", round, covered, util-80, rep)
		}
	}
	if acks.Load() < 4 {
		t.Fatalf("only %d Offload-ACKs passed the dropper; the rounds never exercised loss", acks.Load())
	}
}
