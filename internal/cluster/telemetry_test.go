package cluster

import (
	"testing"
	"time"

	"repro/internal/databus"
	"repro/internal/proto"
	"repro/internal/tsdb"
)

// TestManagerPublishesStatsToDatabus proves the STAT control path feeds
// the telemetry data plane end to end: client STATs arrive over the wire,
// land in the NMDB, and come out of the bus's tsdb sink as per-node
// series.
func TestManagerPublishesStatsToDatabus(t *testing.T) {
	db := tsdb.New()
	bus := databus.New(databus.Config{
		QueueSize: 1 << 12, BatchSize: 64, FlushInterval: time.Millisecond,
	})
	bus.Attach(databus.NewTSDBSink("store", db))
	defer bus.Close()

	h := newHarnessWith(t, lineTopology(3), func(cfg *ManagerConfig) {
		cfg.Databus = bus
	}, []ClientConfig{
		{Node: 0, Capable: true},
		{Node: 1, Capable: true},
	})
	h.setUtil(0, 72, 30)
	h.setUtil(1, 41, 12)
	h.setUtil(0, 75, 31)

	utilKey, dataKey, agentsKey := StatSeriesKeys(0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, ok := db.Last(utilKey); ok && p.V == 75 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("util series for node 0 never reached 75 (have %d points)",
				len(db.Query(utilKey, 0, 1e18)))
		}
		time.Sleep(time.Millisecond)
	}
	if p, ok := db.Last(dataKey); !ok || p.V != 31 {
		t.Fatalf("data series last = %+v ok=%v, want 31", p, ok)
	}
	if p, ok := db.Last(agentsKey); !ok || p.V != 10 {
		t.Fatalf("agents series last = %+v ok=%v, want 10 (harness default)", p, ok)
	}
	if p, ok := db.Last(tsdb.Key(MetricNodeUtil, map[string]string{"node": "1"})); !ok || p.V != 41 {
		t.Fatalf("node 1 util last = %+v ok=%v, want 41", p, ok)
	}
}

// TestManagerRepublishesTelemetryBatches proves the offloaded-telemetry
// return path: a destination streams remote-write frames over its
// connection (ConnSink → MsgTelemetryBatch) and the manager decodes and
// republishes them onto its bus.
func TestManagerRepublishesTelemetryBatches(t *testing.T) {
	db := tsdb.New()
	bus := databus.New(databus.Config{
		QueueSize: 1 << 12, BatchSize: 64, FlushInterval: time.Millisecond,
	})
	bus.Attach(databus.NewTSDBSink("store", db))
	defer bus.Close()

	h := newHarnessWith(t, lineTopology(3), func(cfg *ManagerConfig) {
		cfg.Databus = bus
	}, []ClientConfig{{Node: 0, Capable: true}})

	// Node 0's client owns the pipe; send the frame through a conn sink on
	// a second connection playing an offload destination at node 1.
	destEnd, managerEnd := proto.Pipe(16)
	attached := make(chan error, 1)
	go func() {
		_, err := h.manager.Attach(managerEnd)
		attached <- err
	}()
	if err := destEnd.Send(&proto.Message{
		Type: proto.MsgOffloadCapable, From: 1, To: ManagerNode,
		Capable: true, CMax: 80, COMax: 50,
	}); err != nil {
		t.Fatal(err)
	}
	if ack, err := recvMsg(destEnd); err != nil || ack.Type != proto.MsgAck {
		t.Fatalf("handshake ack = %+v err=%v", ack, err)
	}
	if err := <-attached; err != nil {
		t.Fatal(err)
	}

	sink := databus.NewConnSink("uplink", destEnd, 1, ManagerNode)
	key := tsdb.Key("dust_agent_rtt_ms", map[string]string{"origin": "0", "host": "1"})
	if err := sink.WriteBatch([]databus.Sample{
		{Key: key, T: 100, V: 1.5},
		{Key: key, T: 101, V: 2.5},
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if pts := db.Query(key, 0, 1e18); len(pts) == 2 {
			if pts[1].V != 2.5 {
				t.Fatalf("republished points %+v", pts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relayed telemetry never reached the bus's tsdb sink")
		}
		time.Sleep(time.Millisecond)
	}
	if got := h.manager.Metrics(); got == nil {
		t.Fatal("manager registry missing")
	}
	if v := h.manager.metrics.telemetryFrames["published"].Value(); v != 1 {
		t.Fatalf("telemetry frames published = %d, want 1", v)
	}
	if v := h.manager.metrics.telemetrySamples.Value(); v != 2 {
		t.Fatalf("telemetry samples = %d, want 2", v)
	}
}
