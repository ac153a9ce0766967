package main

import (
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/proto"
)

// The fleet160 fixture: the shape of the in-process tick benchmarks
// (newTickBenchMode in internal/cluster), so numbers line up with
// bench_baseline.txt.
const (
	fleetNodes   = 160
	fleetEdgeP   = 0.05
	fleetCapMbps = 1000
	utilLo       = 0.3
	utilHi       = 0.9
	statDataMb   = 20
	statAgents   = 1
)

// thresholds are the manager defaults every node classifies under.
var thresholds = core.Thresholds{CMax: 80, COMax: 50, XMin: 1}

// placementInterval is cmd/dustmanager's default -interval; it only sets
// the STAT cadence announced in ACKs and the keepalive timeout here, the
// driver ticks the manager itself.
const placementInterval = 30 * time.Second

// listenerDeadlines mirrors cmd/dustmanager's default -write-deadline.
var listenerDeadlines = proto.ConnDeadlines{Write: 10 * time.Second}

// solveParams is the planner configuration: cmd/dustmanager's defaults
// (PathDP, warm solve, one route worker per CPU, 1 % route-cache epsilon)
// with incremental solving on, so the best ladder the code offers is what
// is measured.
func solveParams() core.Params {
	p := core.DefaultParams()
	p.Thresholds = thresholds
	p.PathStrategy = core.PathDP
	p.Parallelism = -1
	p.CacheEpsilon = 0.01
	setBoolIfPresent(&p, "WarmSolve", true)
	setBoolIfPresent(&p, "IncrementalSolve", true)
	return p
}

// setBoolIfPresent sets a bool field by name when the struct still has
// it. The solve-ladder knobs are slated for removal (ROADMAP item 3);
// going through reflection lets that change land without editing the
// benchmark it is measured by.
func setBoolIfPresent(structPtr any, field string, v bool) {
	f := reflect.ValueOf(structPtr).Elem().FieldByName(field)
	if f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(v)
	}
}

// managerConfig is the single place the manager under test is configured:
// cmd/dustmanager's defaults, no databus, no checkpointing, audit off.
func managerConfig(topo *graph.Graph) cluster.ManagerConfig {
	return cluster.ManagerConfig{
		Topology:          topo,
		Defaults:          thresholds,
		Params:            solveParams(),
		UpdateIntervalSec: placementInterval.Seconds(),
		KeepaliveTimeout:  3 * placementInterval,
		PlacementRetries:  2,
		NMDBShards:        cluster.DefaultNMDBShards,
	}
}
