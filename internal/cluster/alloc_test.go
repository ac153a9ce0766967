package cluster

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/report"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (client, manager proto.Conn) {
	t.Helper()
	l, err := proto.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan proto.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err = proto.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	manager = <-accepted
	if manager == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		client.Close()
		manager.Close()
	})
	return client, manager
}

// TestClientSendStatAllocatesNothing: a STAT, full or heartbeat, is built
// in the client's own Message and written from the connection's own frame
// buffer — no allocation on the sending switch. Receiving it is free too
// (TestTCPRecvStatAllocatesNothing), so each run sends and receives one.
func TestClientSendStatAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    report.Policy
		intervals int // SendStat calls per frame sent
		heartbeat bool
	}{
		{name: "full", intervals: 1},
		// Unchanged values inside a deadband with MaxSilence 1 alternate a
		// suppressed interval and a heartbeat.
		{name: "heartbeat", policy: report.Policy{Util: report.Deadband{Abs: 5}, MaxSilence: 1}, intervals: 2, heartbeat: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cliEnd, mgrEnd := tcpPair(t)
			cl, err := NewClient(ClientConfig{
				Node: 4, Report: tc.policy, Seed: 1,
				Resources: func() Resources { return Resources{UtilPct: 91.5, DataMb: 12, NumAgents: 3} },
			}, cliEnd)
			if err != nil {
				t.Fatal(err)
			}
			// The first interval always reports in full.
			var m proto.Message
			if err := cl.SendStat(); err != nil {
				t.Fatal(err)
			}
			if err := mgrEnd.Recv(&m); err != nil {
				t.Fatal(err)
			}
			const runs = 200
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < tc.intervals; i++ {
					if err := cl.SendStat(); err != nil {
						t.Fatal(err)
					}
				}
				if err := mgrEnd.Recv(&m); err != nil {
					t.Fatal(err)
				}
			})
			if m.Type != proto.MsgStat || m.Seq != runs+2 || m.StatHeartbeat != tc.heartbeat || m.UtilPct != 91.5 {
				t.Fatalf("last frame = %+v, want STAT seq %d heartbeat=%v", m, runs+2, tc.heartbeat)
			}
			if allocs != 0 {
				t.Fatalf("SendStat allocates %.1f times per frame, want 0", allocs)
			}
		})
	}
}

// TestClientStepAllocatesOnlyTheRoute: Step receives into the client's own
// Message and answers a hosting request from its own ACK frame, so the one
// allocation a step may make is the decoded route, which Recv's contract
// lets OnRedirect and OnHost keep.
func TestClientStepAllocatesOnlyTheRoute(t *testing.T) {
	for _, tc := range []struct {
		name string
		busy int32 // 4 (the client itself) makes the request a redirect
		ack  bool
	}{
		{name: "redirect", busy: 4},
		{name: "hosting-request", busy: 7, ack: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cliEnd, mgrEnd := tcpPair(t)
			var calls int
			var lastRoute []int32
			cl, err := NewClient(ClientConfig{
				Node:      4,
				Resources: func() Resources { return Resources{} },
				OnRedirect: func(_ float64, route []int32) {
					calls++
					lastRoute = route
				},
				OnHost: func(_ int, _ float64, route []int32) bool {
					calls++
					lastRoute = route
					return true
				},
			}, cliEnd)
			if err != nil {
				t.Fatal(err)
			}
			req := &proto.Message{
				Type: proto.MsgOffloadRequest, From: ManagerNode, To: 4,
				BusyNode: tc.busy, AmountPct: 12.5, RouteNodes: []int32{tc.busy, 9, 4},
			}
			var ack proto.Message
			step := func() {
				req.Seq++
				if err := mgrEnd.Send(req); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Step(); err != nil {
					t.Fatal(err)
				}
				if tc.ack {
					if err := mgrEnd.Recv(&ack); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Fill the duplicate filter's ring first: it never grows again.
			for i := 0; i < seenWindow; i++ {
				step()
			}
			const runs = 200
			allocs := testing.AllocsPerRun(runs, step)
			if want := seenWindow + runs + 1; calls != want {
				t.Fatalf("%d callbacks, want %d", calls, want)
			}
			if len(lastRoute) != 3 || lastRoute[0] != tc.busy || lastRoute[2] != 4 {
				t.Fatalf("last route = %v", lastRoute)
			}
			if tc.ack && (ack.Type != proto.MsgOffloadAck || !ack.Accept || ack.BusyNode != tc.busy) {
				t.Fatalf("last ACK = %+v", ack)
			}
			if allocs > 1 {
				t.Fatalf("Step allocates %.1f times per request, want at most 1 (the route)", allocs)
			}
		})
	}
}

// TestSteadyRedirectAllocatesNothing: a steady round keeps every pair and
// only re-sends their redirects. The manager writes each redirect, route
// included, in its own frame and the connection's own buffer, so
// re-sending a kept pair's redirect allocates nothing; the busy node still
// receives every redirect intact.
func TestSteadyRedirectAllocatesNothing(t *testing.T) {
	h := newHarness(t, lineTopology(4), []ClientConfig{
		{Node: 1, Capable: true},
		{Node: 2, Capable: true},
		{Node: 3, Capable: true},
	})
	mgr := h.manager
	l, err := proto.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)

	// The busy node talks TCP and reads nothing until the end, so no
	// receive-side allocation lands in the measurement.
	type redirect struct {
		amount float64
		route  []int32
	}
	var got []redirect
	conn, err := proto.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewClient(ClientConfig{
		Node: 0, Capable: true,
		Resources: func() Resources { return Resources{UtilPct: 92, DataMb: 50, NumAgents: 10} },
		OnRedirect: func(amount float64, route []int32) {
			got = append(got, redirect{amount, route})
		},
	}, conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := busy.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := busy.SendStat(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, ok := mgr.NMDB().Client(0)
		return ok && rec.UtilPct == 92
	})
	h.setUtil(1, 45, 0) // Cd = 5
	h.setUtil(2, 30, 0) // Cd = 20
	h.setUtil(3, 65, 0) // neutral

	if _, err := mgr.RunPlacement(); err != nil {
		t.Fatal(err)
	}
	steady, err := mgr.RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(steady.Accepted) != 2 || steady.Kept != 2 {
		t.Fatalf("second round = %+v, want two kept pairs", steady)
	}

	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		mgr.tickMu.Lock()
		for _, a := range steady.Accepted {
			mgr.sendRedirect(&mgr.tx, a)
		}
		mgr.tickMu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("redirecting %d kept pairs allocates %.1f times, want 0", len(steady.Accepted), allocs)
	}

	// Two rounds and the runs (plus AllocsPerRun's warm-up), one redirect
	// per pair each.
	want := 2 * (2 + runs + 1)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want && time.Now().Before(deadline) {
		if _, err := busy.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != want {
		t.Fatalf("busy node received %d redirects, want %d", len(got), want)
	}
	for i, r := range got {
		a := steady.Accepted[i%2]
		if r.amount != a.Amount || len(r.route) < 2 || r.route[0] != 0 || r.route[len(r.route)-1] != int32(a.Candidate) {
			t.Fatalf("redirect %d = %+v, want %g along a route 0→%d", i, r, a.Amount, a.Candidate)
		}
	}
}
