// Command dustmanager runs a DUST-Manager: it listens for DUST-Client
// connections, maintains the NMDB from their STAT reports, and
// periodically runs the placement optimization, failure detection, and
// reclaim policies.
//
// Usage:
//
//	dustmanager -listen 127.0.0.1:7700 -k 4 -interval 10s
//
// The topology is the k-port fat-tree clients index into with their -node
// flags.
//
// High availability: -checkpoint-path makes the manager durable (crash-safe
// NMDB checkpoints, restored on restart); -standby-of starts it as a warm
// standby of another manager, streaming that primary's snapshots and
// promoting itself — manually never, automatically after -promote-after of
// replication silence — into the active role. A freshly restored or
// promoted manager defers evictions for a grace window until clients
// resync (degraded mode, see DESIGN.md §13).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/databus"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/tsdb"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7700", "listen address")
		ckptPath  = flag.String("checkpoint-path", "", "durable NMDB checkpoint file (restored at start, written periodically and on shutdown)")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint cadence (negative = shutdown-only)")
		standbyOf = flag.String("standby-of", "", "run as a warm standby replicating from this primary manager address")
		promote   = flag.Duration("promote-after", 10*time.Second, "replication silence before a standby promotes itself (negative = manual only)")
		replEvery = flag.Duration("replication-interval", time.Second, "snapshot/heartbeat cadence toward attached standbys")
		grace     = flag.Duration("grace-window", 0, "degraded-mode bound after restore/promotion (0 = 2x keepalive timeout, negative = disabled)")
		quorum    = flag.Float64("resync-quorum", 0.5, "fraction of restored clients whose re-handshake ends degraded mode early")
		k         = flag.Int("k", 4, "fat-tree port count of the managed topology")
		interval  = flag.Duration("interval", 30*time.Second, "placement/update interval")
		cmax      = flag.Float64("cmax", 80, "default busy threshold (percent)")
		comax     = flag.Float64("comax", 50, "default offload-candidate threshold (percent)")
		xmin      = flag.Float64("xmin", 10, "minimum node usage (percent)")
		maxHops   = flag.Int("maxhops", 0, "controllable-route hop bound (0 = unbounded)")
		heuristic = flag.Bool("fastpaths", true, "use the polynomial route DP instead of exhaustive enumeration")
		retries   = flag.Int("retries", 2, "placement retry rounds against next-best candidates (0 = single-shot)")
		ackWait   = flag.Duration("acktimeout", 0, "Offload-ACK wait before an offer counts as timed out (0 = manager default)")
		readDL    = flag.Duration("read-deadline", 0, "per-Recv deadline on client connections; must exceed the STAT interval (0 = none)")
		writeDL   = flag.Duration("write-deadline", 10*time.Second, "per-Send deadline on client connections (0 = none)")
		par       = flag.Int("parallelism", -1, "route-table worker pool size (0/1 = serial, -1 = one per CPU)")
		routeEps  = flag.Float64("route-eps", 0.01, "route-cache link-rate drift tolerance (relative; 0 = exact revalidation)")
		metrics   = flag.String("metrics-addr", "", "address serving /metrics, /healthz, and /debug/pprof (empty = disabled)")
		verifyPl  = flag.Bool("verify-placements", false, "self-audit every solver result against the Eq. 3 invariants before offering it (debug)")
		shards    = flag.Int("nmdb-shards", cluster.DefaultNMDBShards, "NMDB registry stripe count (rounded up to a power of two; <1 = default)")
		measured  = flag.Bool("measured-costs", false, "blend client probe reports (RTT/loss) into route edge costs (DESIGN.md §15)")
		measStale = flag.Duration("measured-stale", 0, "probe measurement lifetime before an edge falls back to static costs (0 = default)")
		staleHzn  = flag.Duration("staleness-horizon", 0, "NMDB report-freshness horizon for sampled clients: heartbeat-refreshed records hold their last classification inside it and go neutral beyond it (0 = disabled, classify from raw samples; see DESIGN.md §16)")

		databusOn    = flag.Bool("databus", false, "publish ingested STATs (and relayed telemetry-batch frames) onto an in-process databus backed by a node-local tsdb")
		databusQueue = flag.Int("databus-queue", databus.DefaultQueueSize, "per-sink databus queue bound in samples")
		databusBatch = flag.Int("databus-batch", databus.DefaultBatchSize, "databus flush threshold in samples")
		databusFlush = flag.Duration("databus-flush", databus.DefaultFlushInterval, "databus partial-batch flush interval")
		databusRW    = flag.String("databus-remote-write", "", "also stream snappy-framed remote-write batches to this file (implies -databus)")
	)
	flag.Parse()

	topo := graph.FatTree(*k, 1000)
	th := core.Thresholds{CMax: *cmax, COMax: *comax, XMin: *xmin}
	if delta := th.DeltaIO(); delta < core.RecommendedKIO {
		log.Printf("warning: Δ_io = %.2f below the recommended K_io = %.0f; expect infeasible rounds",
			delta, core.RecommendedKIO)
	}
	params := core.DefaultParams()
	params.Thresholds = th
	params.MaxHops = *maxHops
	if *heuristic {
		params.PathStrategy = core.PathDP
	}
	params.Parallelism = *par
	params.CacheEpsilon = *routeEps

	// The databus is the telemetry data plane: STATs the manager ingests
	// (and telemetry-batch frames destinations relay) fan out to a
	// node-local tsdb and, optionally, a remote-write frame stream. The
	// registry is shared with the manager so one /metrics scrape covers
	// both planes.
	reg := obs.NewRegistry()
	var bus *databus.Bus
	if *databusOn || *databusRW != "" {
		bus = databus.New(databus.Config{
			QueueSize:     *databusQueue,
			BatchSize:     *databusBatch,
			FlushInterval: *databusFlush,
			Metrics:       reg,
		})
		defer bus.Close()
		store := tsdb.New()
		bus.Attach(databus.NewTSDBSink("tsdb", store))
		reg.GaugeFunc("dust_databus_tsdb_points",
			"points held by the databus-backed node-local tsdb",
			func() float64 { return float64(store.NumPoints()) })
		if *databusRW != "" {
			f, err := os.Create(*databusRW)
			if err != nil {
				log.Fatalf("dustmanager: remote-write sink: %v", err)
			}
			defer f.Close()
			bus.Attach(databus.NewRemoteWriteSink("remote-write", f))
			log.Printf("dustmanager: streaming remote-write frames to %s", *databusRW)
		}
	}

	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:            topo,
		Defaults:            th,
		Params:              params,
		UpdateIntervalSec:   interval.Seconds(),
		KeepaliveTimeout:    3 * *interval,
		AckTimeout:          *ackWait,
		PlacementRetries:    *retries,
		VerifyPlacements:    *verifyPl,
		NMDBShards:          *shards,
		CheckpointPath:      *ckptPath,
		CheckpointInterval:  *ckptEvery,
		ReplicationInterval: *replEvery,
		Follower:            *standbyOf != "",
		GraceWindow:         *grace,
		ResyncQuorum:        *quorum,
		Metrics:             reg,
		Databus:             bus,
		MeasuredCosts:       *measured,
		MeasuredStaleAfter:  *measStale,
		StalenessHorizon:    *staleHzn,
	})
	if err != nil {
		log.Fatalf("dustmanager: %v", err)
	}
	defer mgr.Close() // shutdown checkpoint
	if err := mgr.RestoreError(); err != nil {
		log.Printf("dustmanager: checkpoint restore failed, starting blind (file moved aside): %v", err)
	} else if *ckptPath != "" && len(mgr.NMDB().Nodes()) > 0 {
		log.Printf("dustmanager: restored NMDB from %s (%d clients, %d active assignments)",
			*ckptPath, len(mgr.NMDB().Nodes()), len(mgr.NMDB().ActiveAssignments()))
	}
	if *metrics != "" {
		srv, err := obs.Serve(*metrics, mgr.Metrics())
		if err != nil {
			log.Fatalf("dustmanager: metrics: %v", err)
		}
		defer srv.Close()
		log.Printf("dustmanager: metrics on http://%s/metrics (healthz, pprof alongside)", srv.Addr())
	}
	l, err := proto.Listen(*listen)
	if err != nil {
		log.Fatalf("dustmanager: %v", err)
	}
	l.SetDeadlines(proto.ConnDeadlines{Read: *readDL, Write: *writeDL})
	nodes, edges := graph.FatTreeSizes(*k)
	log.Printf("dustmanager: managing %d-k fat-tree (%d nodes, %d edges) on %s", *k, nodes, edges, l.Addr())

	if *standbyOf != "" {
		// Warm standby: replicate the primary's snapshots while serving the
		// listener, so clients can rotate here the moment promotion happens.
		sb, err := cluster.NewStandby(cluster.StandbyConfig{
			Manager: mgr,
			Dial: func() (proto.Conn, error) {
				return proto.DialDeadlines(*standbyOf, proto.ConnDeadlines{Write: *writeDL})
			},
			PromoteAfter: *promote,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("dustmanager: %v", err)
		}
		log.Printf("dustmanager: warm standby of %s (promote after %v of replication silence)", *standbyOf, *promote)
		go func() {
			if err := sb.Run(context.Background()); err != nil {
				log.Printf("dustmanager: standby: %v", err)
				return
			}
			log.Printf("dustmanager: promoted to active manager")
		}()
	}

	go func() {
		tick := time.NewTicker(*interval)
		defer tick.Stop()
		for range tick.C {
			report, err := mgr.RunPlacement()
			if errors.Is(err, cluster.ErrFollower) {
				continue // unpromoted standby: replication only
			}
			if err != nil {
				log.Printf("placement: %v", err)
				continue
			}
			if report.Result == nil {
				log.Printf("placement: no busy nodes")
			} else {
				log.Printf("placement: status=%v β=%.3f in-force=%d kept=%d released=%d declined=%d timed-out=%d retried=%d unplaced=%d abandoned=%d",
					report.Result.Status, report.Result.Objective,
					len(report.Accepted), report.Kept, len(report.Released),
					len(report.Declined), len(report.TimedOut),
					len(report.Retried), len(report.Unplaced), report.Abandoned())
				for _, a := range report.Accepted {
					log.Printf("  offload %.1f%% of node %d → node %d (Trmin %.3fs)",
						a.Amount, a.Busy, a.Candidate, a.ResponseTimeSec)
				}
			}
			// Origins whose STAT dropped below CMax are released by the
			// placement round itself (report.Released).
			for _, a := range report.Released {
				log.Printf("  released %.1f%% of node %d from node %d", a.Amount, a.Busy, a.Candidate)
			}
			subs, err := mgr.CheckKeepalives()
			if err != nil {
				log.Printf("keepalive check: %v", err)
				continue
			}
			for _, s := range subs {
				log.Printf("  substituted failed destination %d with %d for busy %d (%.1f%%)",
					s.Failed, s.Replica, s.Busy, s.Amount)
			}
		}
	}()

	if err := mgr.Serve(l); err != nil {
		log.Printf("dustmanager: serve: %v", err)
	}
}
