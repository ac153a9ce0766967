package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
)

// IngestPoint is one ingest configuration's measured STAT throughput.
type IngestPoint struct {
	// Config names the registry layout ("shards=1", "shards=8", ...).
	Config string
	// Shape names the call pattern: per-stat RecordStat calls, the
	// manager's single-node RecordStats batches (what serveConn produces
	// from each connection's buffered STAT runs), or mixed multi-node
	// batches.
	Shape string
	// NsPerStat is the mean apply cost of one report.
	NsPerStat float64
	// Speedup is relative to the first (baseline) point.
	Speedup float64
}

// IngestResult reports the ingest-to-solve hot-path study (DESIGN.md
// §12): NMDB STAT throughput across registry layouts and batch shapes,
// and placement ticks over a drifting snapshot.
type IngestResult struct {
	Points []IngestPoint
	// Ticks is the number of drift+placement rounds timed.
	Ticks int
	// Tick is the mean RunPlacement wall time.
	Tick time.Duration
	// ShardsReused and ShardsRebuilt count the manager's epoch
	// snapshot activity: shards copied from the previous tick's state
	// versus re-read from client records.
	ShardsReused, ShardsRebuilt uint64
}

// RunIngestScaling measures the two halves of the hot path separately.
func RunIngestScaling(cfg Config) (*IngestResult, error) {
	const n = 1024
	const batchLen = 64
	reports := 1 << 19
	if cfg.Fast {
		reports = 1 << 16
	}
	shards := cfg.NMDBShards
	if shards <= 0 {
		shards = cluster.DefaultNMDBShards
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stream := make([]cluster.Stat, 1<<14)
	for i := range stream {
		stream[i] = cluster.Stat{
			Node: rng.Intn(n), UtilPct: 100 * rng.Float64(),
			DataMb: 20 * rng.Float64(), NumAgents: 1 + rng.Intn(4),
			At: time.Unix(1, 0),
		}
	}
	newDB := func(nsh int) (*cluster.NMDB, error) {
		db := cluster.NewNMDBSharded(graph.Line(n, 100), nsh)
		for i := 0; i < n; i++ {
			if err := db.Register(i, true, 0, 0); err != nil {
				return nil, err
			}
		}
		return db, nil
	}
	res := &IngestResult{}
	perStat := func(config string, nsh int) error {
		db, err := newDB(nsh)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < reports; i++ {
			st := &stream[i%len(stream)]
			if err := db.RecordStat(st.Node, st.UtilPct, st.DataMb, st.NumAgents, st.At); err != nil {
				return err
			}
		}
		res.addPoint(config, "per-stat", reports, time.Since(start))
		return nil
	}
	if err := perStat("shards=1", 1); err != nil {
		return nil, err
	}
	if err := perStat(fmt.Sprintf("shards=%d", shards), shards); err != nil {
		return nil, err
	}

	// The manager's real ingest shape: serveConn coalesces the STATs a
	// connection has buffered at one wake-up (at most 64) into one
	// RecordStats batch, so every batch is single-node.
	db, err := newDB(shards)
	if err != nil {
		return nil, err
	}
	batch := make([]cluster.Stat, batchLen)
	start := time.Now()
	for i := 0; i < reports/batchLen; i++ {
		node := stream[i%len(stream)].Node
		for j := range batch {
			batch[j] = stream[(i+j)%len(stream)]
			batch[j].Node = node
		}
		if err := db.RecordStats(batch); err != nil {
			return nil, err
		}
	}
	res.addPoint(fmt.Sprintf("shards=%d", shards), "batch64", reports/batchLen*batchLen, time.Since(start))

	// Worst-case mixed batches spanning many shards (the counting-sort
	// grouping path).
	if db, err = newDB(shards); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < reports/batchLen; i++ {
		off := (i * batchLen) % (len(stream) - batchLen)
		if err := db.RecordStats(stream[off : off+batchLen]); err != nil {
			return nil, err
		}
	}
	res.addPoint(fmt.Sprintf("shards=%d", shards), "batch64-mixed", reports/batchLen*batchLen, time.Since(start))

	if err := res.runTicks(cfg, shards); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *IngestResult) addPoint(config, shape string, reports int, elapsed time.Duration) {
	p := IngestPoint{
		Config:    config,
		Shape:     shape,
		NsPerStat: float64(elapsed.Nanoseconds()) / float64(reports),
	}
	if len(r.Points) > 0 && p.NsPerStat > 0 {
		p.Speedup = r.Points[0].NsPerStat / p.NsPerStat
	} else {
		p.Speedup = 1
	}
	r.Points = append(r.Points, p)
}

// runTicks times placement rounds on the scale the cluster benchmarks
// use: a 160-node random topology with a stable busy/candidate split and
// 10% per-tick STAT drift inside each node's role band.
func (r *IngestResult) runTicks(cfg Config, shards int) error {
	const n = 160
	ticks := cfg.Iterations
	if ticks > 40 {
		ticks = 40
	}
	if ticks < 4 {
		ticks = 4
	}
	r.Ticks = ticks
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7157))
	topo := graph.RandomConnected(n, 0.05, 1000, rng)
	// The paper-literal rate model reads Lu = Cap·utilization, so links
	// need nonzero utilization to carry offload traffic.
	graph.RandomizeUtilization(topo, 0.3, 0.9, rng)
	params := core.DefaultParams()
	params.PathStrategy = core.PathDP
	params.Parallelism = cfg.Parallelism
	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:   topo,
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 1},
		Params:     params,
		NMDBShards: shards,
	})
	if err != nil {
		return err
	}
	role := func(i int) float64 {
		if i%3 == 0 {
			return 85 + 10*rng.Float64() // busy: above CMax 80
		}
		return 15 + 20*rng.Float64() // candidate: below COMax 50
	}
	for i := 0; i < n; i++ {
		if err := mgr.NMDB().Register(i, true, 0, 0); err != nil {
			return err
		}
		if err := mgr.NMDB().RecordStat(i, role(i), 20, 1, time.Unix(1, 0)); err != nil {
			return err
		}
	}
	if _, err := mgr.RunPlacement(); err != nil {
		return err
	}
	var total time.Duration
	for t := 0; t < ticks; t++ {
		for i := 0; i < n; i++ {
			if rng.Float64() > 0.10 {
				continue
			}
			if err := mgr.NMDB().RecordStat(i, role(i), 20, 1, time.Unix(2, 0)); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, err := mgr.RunPlacement(); err != nil {
			return err
		}
		total += time.Since(start)
	}
	r.Tick = total / time.Duration(ticks)
	dbStats := mgr.NMDB().Stats()
	r.ShardsReused = dbStats.SnapshotShardsReused
	r.ShardsRebuilt = dbStats.SnapshotShardsRebuilt
	return nil
}

// Table renders both halves of the study.
func (r *IngestResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Config, p.Shape, f1(p.NsPerStat), f2(p.Speedup) + "×",
		})
	}
	out := "Ingest scaling — NMDB STAT throughput by registry layout and batch shape\n" +
		table([]string{"registry", "shape", "ns/stat", "speedup"}, rows)
	out += fmt.Sprintf(
		"\nPlacement ticks (%d rounds, 160 nodes, 10%% drift): %s per tick, snapshot shards reused/rebuilt %d/%d\n",
		r.Ticks, fdur(r.Tick), r.ShardsReused, r.ShardsRebuilt)
	return out
}
