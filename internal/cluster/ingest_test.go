package cluster

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// newIngestManager builds a manager on a line topology for the
// receive-path tests; now is its clock (nil = wall clock).
func newIngestManager(t *testing.T, nodes int, now func() time.Time) *Manager {
	t.Helper()
	mgr, err := NewManager(ManagerConfig{
		Topology:   lineTopology(nodes),
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		AckTimeout: 2 * time.Second,
		Now:        now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

// tcpPeer registers node with mgr over loopback TCP and returns the
// client end, so a test can script the session frame by frame: c frames
// messages, nc is the socket under it for writing several frames at once.
func tcpPeer(t *testing.T, mgr *Manager, node int) (c proto.Conn, nc net.Conn) {
	t.Helper()
	ln, err := proto.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go mgr.Serve(ln)
	nc, err = net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c = proto.NewNetConn(nc)
	t.Cleanup(func() { c.Close() })
	if err := c.Send(&proto.Message{
		Type: proto.MsgOffloadCapable, From: int32(node), To: ManagerNode, Seq: 1, Capable: true,
	}); err != nil {
		t.Fatal(err)
	}
	var ack proto.Message
	if err := c.Recv(&ack); err != nil || ack.Type != proto.MsgAck || ack.Error != "" {
		t.Fatalf("handshake failed: %+v, %v", ack, err)
	}
	return c, nc
}

// sendStats writes STATs with utilizations first..last and sequence
// numbers continuing from seq.
func sendStats(t *testing.T, c proto.Conn, node int, seq uint64, first, last int) {
	t.Helper()
	for u := first; u <= last; u++ {
		if err := c.Send(&proto.Message{
			Type: proto.MsgStat, From: int32(node), To: ManagerNode, Seq: seq,
			UtilPct: float64(u), DataMb: 1, NumAgents: 1,
		}); err != nil {
			t.Fatal(err)
		}
		seq++
	}
}

// stableGoroutines waits until the goroutine count stops moving (tests
// that ran earlier may still be winding down) and returns it.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestAttachAddsOneGoroutinePerSession: a client session costs the
// manager exactly one goroutine — reading, batching, and dispatch share
// it, with no receive pump beside it.
func TestAttachAddsOneGoroutinePerSession(t *testing.T) {
	const n = 6
	mgr := newIngestManager(t, n, nil)
	base := stableGoroutines()
	for node := 0; node < n; node++ {
		a, b := proto.Pipe(16)
		t.Cleanup(func() { a.Close() })
		if err := a.Send(&proto.Message{
			Type: proto.MsgOffloadCapable, From: int32(node), To: ManagerNode, Seq: 1, Capable: true,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := stableGoroutines() - base; got != n {
		t.Fatalf("attaching %d clients added %d manager goroutines, want %d", n, got, n)
	}
}

// TestClosedConnAppliesPendingStats: a client that writes a run of STATs
// and hangs up has every one applied before the manager runs its
// disconnect path — the NMDB already holds the last value sent when the
// disconnect is counted.
func TestClosedConnAppliesPendingStats(t *testing.T) {
	const node, last = 2, 60
	mgr := newIngestManager(t, 4, nil)
	c, _ := tcpPeer(t, mgr, node)
	sendStats(t, c, node, 2, 1, last)
	c.Close()
	waitFor(t, func() bool { return mgr.metrics.disconnects.Value() == 1 })
	if rec, _ := mgr.NMDB().Client(node); rec.UtilPct != last {
		t.Fatalf("NMDB holds utilization %v at disconnect, want the last STAT's %v", rec.UtilPct, float64(last))
	}
	if got := mgr.metrics.statsIngested.Value(); got != last {
		t.Fatalf("%d STATs ingested, want %d", got, last)
	}
}

// TestStatRunThenAckAppliedInOrder: a destination answers an offer with a
// run of STATs and then its Offload-ACK on the same connection. The ACK
// is handled after the whole run is applied, so by the time the placement
// round returns on that ACK the NMDB holds the run's last value.
func TestStatRunThenAckAppliedInOrder(t *testing.T) {
	mgr := newIngestManager(t, 2, nil)
	rawPeer(t, mgr, 0, 90, 30) // Cs = 10
	dest, _ := tcpPeer(t, mgr, 1)
	sendStats(t, dest, 1, 2, 20, 20) // Cd = 30
	waitFor(t, func() bool {
		rec, ok := mgr.NMDB().Client(1)
		return ok && rec.UtilPct == 20
	})

	reports := make(chan *PlacementReport, 1)
	go func() {
		report, err := mgr.RunPlacement()
		if err != nil {
			t.Error(err)
		}
		reports <- report
	}()
	var req proto.Message
	if err := dest.Recv(&req); err != nil || req.Type != proto.MsgOffloadRequest {
		t.Fatalf("offer = %+v, %v", req, err)
	}
	const last = 44
	sendStats(t, dest, 1, 3, 21, last)
	if err := dest.Send(&proto.Message{
		Type: proto.MsgOffloadAck, From: 1, To: ManagerNode, Seq: 100,
		BusyNode: req.BusyNode, Accept: true,
	}); err != nil {
		t.Fatal(err)
	}
	report := <-reports
	if report == nil || len(report.Accepted) != 1 {
		t.Fatalf("report = %+v, want the offer accepted", report)
	}
	if rec, _ := mgr.NMDB().Client(1); rec.UtilPct != last {
		t.Fatalf("NMDB holds utilization %v when the ACK was handled, want the run's last %v", rec.UtilPct, float64(last))
	}
}

// TestStatRunThenHeartbeatAppliedInOrder: a STAT run and a heartbeat STAT
// arrive in one segment, so the run is still a pending batch when the
// heartbeat (handled inline, not batched) is read. The heartbeat must land
// after the run: on a clock that ticks per read, the record's report age
// is the heartbeat's, later than the run's last sample.
func TestStatRunThenHeartbeatAppliedInOrder(t *testing.T) {
	const node, last = 1, 20 // 21 frames: one read's worth
	clock := &autoClock{now: time.Unix(1000, 0), step: time.Second}
	mgr := newIngestManager(t, 2, clock.Now)
	_, nc := tcpPeer(t, mgr, node)
	var burst bytes.Buffer
	for u := 1; u <= last; u++ {
		if err := proto.WriteFrame(&burst, &proto.Message{
			Type: proto.MsgStat, From: node, To: ManagerNode, Seq: uint64(1 + u),
			UtilPct: float64(u), DataMb: 1, NumAgents: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := proto.WriteFrame(&burst, &proto.Message{
		Type: proto.MsgStat, From: node, To: ManagerNode, Seq: last + 2,
		UtilPct: last, DataMb: 1, NumAgents: 1, StatHeartbeat: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return mgr.metrics.statHeartbeats.Value() == 1 && mgr.metrics.statsIngested.Value() == last
	})
	rec, _ := mgr.NMDB().Client(node)
	if rec.UtilPct != last || !rec.LastReport.After(rec.LastStat) {
		t.Fatalf("record util %v, last STAT %v, last report %v: want util %v and the heartbeat's report time after the run's",
			rec.UtilPct, rec.LastStat, rec.LastReport, float64(last))
	}
}
