package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/databus"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/tsdb"
)

// countingWriter tallies remote-write frame bytes without keeping them.
type countingWriter struct{ n atomic.Uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(uint64(len(p)))
	return len(p), nil
}

// runDatabusDemo is the -databus mode: a live manager whose ingested STATs
// fan out through the streaming data plane — one databus, two pumps (a
// node-local tsdb and a remote-write frame stream) — while an offload
// destination relays extra telemetry over the wire as telemetry-batch
// frames. The run ends with the federated picture the bus assembled:
// per-node series in the tsdb, wire cost on the remote-write stream, and
// the bus's own queue/drop accounting.
func runDatabusDemo(n int, seed int64, metricsAddr string) error {
	if n < 2 {
		return fmt.Errorf("databus mode needs at least 2 nodes, got %d", n)
	}
	// One extra node beyond the n reporting clients hosts the offload
	// destination that relays telemetry-batch frames.
	topo := graph.Line(n+1, 1000)
	for i := 0; i < topo.NumEdges(); i++ {
		topo.SetUtilization(graph.EdgeID(i), 0.5)
	}
	reg := obs.NewRegistry()
	if metricsAddr != "" {
		srv, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("databus: metrics on http://%s/metrics\n", srv.Addr())
	}

	store := tsdb.New()
	var wire countingWriter
	bus := databus.New(databus.Config{
		QueueSize: 1 << 14, BatchSize: 256,
		FlushInterval: 5 * time.Millisecond, Metrics: reg,
	})
	bus.Attach(databus.NewTSDBSink("tsdb", store))
	rw := databus.NewRemoteWriteSink("remote-write", &wire)
	bus.Attach(rw)
	defer bus.Close()

	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:          topo,
		Defaults:          core.Thresholds{CMax: 80, COMax: 50, XMin: 5},
		UpdateIntervalSec: 0.05,
		Metrics:           reg,
		Databus:           bus,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()

	// Plain clients over in-memory pipes, each reporting a distinct
	// utilization wave so the stored series are recognizably per-node.
	clients := make([]*cluster.Client, n)
	tick := 0
	for node := 0; node < n; node++ {
		node := node
		clientEnd, managerEnd := proto.Pipe(64)
		go mgr.Attach(managerEnd)
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Node: node, Capable: true,
			Resources: func() cluster.Resources {
				phase := float64(tick)/20 + float64(node)
				return cluster.Resources{
					UtilPct:   50 + 30*math.Sin(phase),
					DataMb:    10 + float64(node),
					NumAgents: 4,
				}
			},
		}, clientEnd)
		if err != nil {
			return err
		}
		if err := cl.Handshake(); err != nil {
			return err
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

	// An offload destination streaming the telemetry it gathers on node
	// 0's behalf: remote-write frames over the protocol, decoded and
	// republished by the manager.
	destEnd, managerEnd := proto.Pipe(64)
	go mgr.Attach(managerEnd)
	if err := destEnd.Send(&proto.Message{
		Type: proto.MsgOffloadCapable, From: int32(n), To: cluster.ManagerNode,
		Capable: true, CMax: 80, COMax: 50,
	}); err != nil {
		return err
	}
	var ack proto.Message
	if err := destEnd.Recv(&ack); err != nil || ack.Type != proto.MsgAck || ack.Error != "" {
		return fmt.Errorf("destination handshake: %+v (%v)", ack, err)
	}
	uplink := databus.NewConnSink("uplink", destEnd, int32(n), cluster.ManagerNode)
	relayKey := tsdb.Key("dust_agent_points", map[string]string{"origin": "0", "host": "1"})

	// Drive ~100 STAT rounds plus a relayed frame every tenth round.
	const rounds = 100
	relay := make([]databus.Sample, 0, 8)
	for tick = 0; tick < rounds; tick++ {
		for _, cl := range clients {
			if err := cl.SendStat(); err != nil {
				return err
			}
		}
		if tick%10 == 9 {
			relay = relay[:0]
			for j := 0; j < 8; j++ {
				relay = append(relay, databus.Sample{
					Key: relayKey, T: float64(tick*8 + j), V: float64(200 + j),
				})
			}
			if err := uplink.WriteBatch(relay); err != nil {
				return err
			}
		}
		time.Sleep(time.Millisecond)
	}
	// Let the pumps drain the tail before reading the stores.
	time.Sleep(50 * time.Millisecond)

	st := bus.Stats()
	rwStats := rw.Stats()
	fmt.Printf("databus: %d samples published, %d dropped, %d batches, %d sink errors\n",
		st.Published, st.Dropped, st.Batches, st.SinkErrors)
	fmt.Printf("tsdb sink: %d points across %d series\n", store.NumPoints(), len(store.Keys()))
	utilKey, _, _ := cluster.StatSeriesKeys(0)
	if pts := store.Query(utilKey, 0, math.MaxFloat64); len(pts) > 0 {
		fmt.Printf("  node 0 util: %d points, last %.1f%%\n", len(pts), pts[len(pts)-1].V)
	}
	if pts := store.Query(relayKey, 0, math.MaxFloat64); len(pts) > 0 {
		fmt.Printf("  relayed %s: %d points via %d telemetry-batch frame(s)\n",
			relayKey, len(pts), uplink.Frames())
	}
	if rwStats.Samples > 0 {
		fmt.Printf("remote-write sink: %d frames, %d samples, %.2f bytes/sample on the wire (%.1f%% of raw)\n",
			rwStats.Frames, rwStats.Samples,
			float64(rwStats.CompressedBytes)/float64(rwStats.Samples),
			100*float64(rwStats.CompressedBytes)/float64(rwStats.RawBytes))
	}
	return nil
}
