package dust_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/dust"
)

// TestFacadeEndToEnd exercises the public API exactly as the quickstart
// documents it.
func TestFacadeEndToEnd(t *testing.T) {
	g := dust.FatTree(4, 1000)
	nodes, edges := dust.FatTreeSizes(4)
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Fatalf("fat-tree sizes %d/%d, want %d/%d", g.NumNodes(), g.NumEdges(), nodes, edges)
	}

	rng := rand.New(rand.NewSource(1))
	state, err := dust.RandomState(g, dust.DefaultScenario(), rng)
	if err != nil {
		t.Fatal(err)
	}
	params := dust.DefaultParams()
	params.PathStrategy = dust.PathDP

	res, err := dust.Solve(state, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == dust.StatusOptimal {
		if err := dust.VerifyResult(state, params.Thresholds, res); err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), state.Util...)
		if err := dust.Apply(state, params.Thresholds, res.Assignments); err != nil {
			t.Fatal(err)
		}
		if err := dust.Reclaim(state, res.Assignments); err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if math.Abs(state.Util[i]-before[i]) > 1e-9 {
				t.Fatalf("apply/reclaim not inverse at node %d", i)
			}
		}
	}

	h, err := dust.SolveHeuristic(state, params, dust.HeuristicGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if h.HFRPercent < 0 || h.HFRPercent > 100 {
		t.Fatalf("HFR = %g", h.HFRPercent)
	}

	z, err := dust.SolveZoned(state, params, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Zones) < 2 {
		t.Fatalf("zoning a 20-node network into 10-node zones made %d zones", len(z.Zones))
	}
}

func TestFacadeClassify(t *testing.T) {
	g := dust.NewGraph(2)
	g.AddEdge(0, 1, 100)
	s := dust.NewState(g)
	s.Util[0] = 90
	s.Util[1] = 20
	th := dust.Thresholds{CMax: 80, COMax: 50, XMin: 10}
	c, err := dust.Classify(s, th)
	if err != nil {
		t.Fatal(err)
	}
	if c.Roles[0] != dust.RoleBusy || c.Roles[1] != dust.RoleCandidate {
		t.Fatalf("roles = %v", c.Roles)
	}
	if th.DeltaIO() < dust.RecommendedKIO {
		t.Fatalf("default example thresholds should satisfy K_io")
	}
}

func TestFacadeTransportPipe(t *testing.T) {
	a, b := dust.Pipe(1)
	defer a.Close()
	if err := a.Send(&dust.Message{Type: dust.MsgKeepalive, From: 3}); err != nil {
		t.Fatal(err)
	}
	var m dust.Message
	if err := b.Recv(&m); err != nil || m.Type != dust.MsgKeepalive {
		t.Fatalf("recv = %+v, %v", m, err)
	}
}

func TestFacadePersonasAndPlanner(t *testing.T) {
	g := dust.NewGraph(2)
	id := g.AddEdge(0, 1, 100)
	g.SetUtilization(id, 0.5)
	s := dust.NewState(g)
	s.Util = []float64{100, 40}
	s.DataMb = []float64{10, 0}
	if err := s.SetPersonas([]dust.Persona{
		dust.DefaultPersona(dust.ClassSwitch),
		dust.DefaultPersona(dust.ClassServer),
	}); err != nil {
		t.Fatal(err)
	}
	params := dust.DefaultParams()
	params.PathStrategy = dust.PathDP
	pl := dust.NewPlanner(params)
	res, err := pl.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	// Cs = 20 > raw Cd = 10, but the server's capability-2 persona
	// absorbs it.
	if res.Status != dust.StatusOptimal {
		t.Fatalf("status = %v, want optimal via personas", res.Status)
	}
	// Second round hits the route cache.
	if _, err := pl.Solve(s); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pl.Stats(); hits < 1 {
		t.Fatalf("hits = %d, want cache reuse", hits)
	}
	// Backup-route API composes.
	if alts := dust.AlternateRoutes(s, res.Assignments[0], params.RateModel, 2); len(alts) != 1 {
		t.Fatalf("alternates = %d, want 1 on a single link", len(alts))
	}
	// Heterogeneous solves route through the simplex, which also reports
	// shadow prices; the lone capacity here is binding but has no cheaper
	// alternative, so no positive bottleneck exists.
	if res.ShadowPrices == nil {
		t.Fatal("heterogeneous solve should report shadow prices via duals")
	}
	if bn := res.Bottlenecks(); len(bn) != 0 {
		t.Fatalf("bottlenecks = %+v, want none (no cheaper alternative)", bn)
	}
}

func TestFacadeManagerConstruction(t *testing.T) {
	g := dust.FatTree(4, 1000)
	mgr, err := dust.NewManager(dust.ManagerConfig{
		Topology: g,
		Defaults: dust.Thresholds{CMax: 80, COMax: 50, XMin: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if mgr.NMDB().Topology() != g {
		t.Fatal("manager should hold the supplied topology")
	}
}

func TestFacadeRandomConnectedAndPodZoning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := dust.RandomConnected(12, 0.3, 100, rng)
	if g.NumNodes() != 12 || !g.Connected() {
		t.Fatal("random graph malformed")
	}

	ft := dust.FatTree(4, 1000)
	s, err := dust.RandomState(ft, dust.DefaultScenario(), rng)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := dust.PartitionZonesByPod(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 4 {
		t.Fatalf("pod zones = %d, want 4", len(zones))
	}
	params := dust.DefaultParams()
	params.PathStrategy = dust.PathDP
	if _, err := dust.SolveZonedWithPartition(s, params, zones); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTCPAndClient(t *testing.T) {
	g := dust.FatTree(4, 1000)
	mgr, err := dust.NewManager(dust.ManagerConfig{
		Topology: g,
		Defaults: dust.Thresholds{CMax: 80, COMax: 50, XMin: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	l, err := dust.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)

	conn, err := dust.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl, err := dust.NewClient(dust.ClientConfig{
		Node: 0, Capable: true,
		Resources: func() dust.Resources { return dust.Resources{UtilPct: 42} },
	}, conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	if cl.UpdateInterval() <= 0 {
		t.Fatal("handshake should assign an update interval")
	}
}
