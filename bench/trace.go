package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/proto"
	"repro/internal/verify"
)

// span is one timed interval of the traced run. Spans of one round share
// its id; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(name string, start, end time.Duration, parent, round int) int {
	t.spans = append(t.spans, span{Name: name, StartNs: int64(start), EndNs: int64(end), Parent: parent, Round: round})
	return len(t.spans) - 1
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// replay is the layer replay of the traced run: a shadow NMDB and planner
// over a private copy of the topology, fed the same STATs and link edits
// as the manager, with a span around each public call into a layer. The
// manager times nothing finer than its phase histograms, so this is how a
// round's cost is attributed from outside; the proof that it mirrors the
// real tick is that its objective must equal the manager's every round.
type replay struct {
	tr      *tracer
	topo    *graph.Graph
	db      *cluster.NMDB
	planner *core.Planner
	params  core.Params
	cost    graph.EdgeCost
	// graphVer is the topology version the previous replayed solve saw,
	// the same watermark the manager folds into its PlanDelta.
	graphVer uint64
	flood    bool

	samples map[string][]float64
	changed int
	// frameSize is the encoded size of the workload's STAT frame.
	frameSize int
	encBuf    []byte
	batch     []cluster.Stat
}

// newReplay builds the shadow from the fleet's current state and settles
// its planner with two solves, as the fixture settled the manager's.
func newReplay(f *fleet, w workload) (*replay, error) {
	params := solveParams()
	r := &replay{
		tr:      &tracer{epoch: f.epoch},
		topo:    f.topo.Clone(),
		params:  params,
		planner: core.NewPlanner(params),
		cost:    graph.InverseRateCost(params.EffectiveRate),
		flood:   w.step == nil,
		samples: map[string][]float64{},
	}
	r.db = cluster.NewNMDBSharded(r.topo, cluster.DefaultNMDBShards)
	now := time.Now()
	for _, n := range f.nodes {
		if err := r.db.Register(n.id, true, 0, 0); err != nil {
			return nil, err
		}
		if err := r.db.RecordStat(n.id, n.util, statDataMb, statAgents, now); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := r.solve(-1, -1); err != nil {
			return nil, err
		}
	}
	r.samples, r.changed, r.tr.spans = map[string][]float64{}, 0, nil
	return r, nil
}

// timed runs fn inside a span and records its duration in microseconds.
func (r *replay) timed(name string, parent, round int, fn func() error) error {
	start := time.Since(r.tr.epoch)
	err := fn()
	end := time.Since(r.tr.epoch)
	r.tr.add(name, start, end, parent, round)
	r.samples[name] = append(r.samples[name], us(end-start))
	return err
}

// solve is the shadow's tick up to the solver result: snapshot and delta,
// classification, route table and LP — the calls RunPlacement makes, each
// under its own span.
func (r *replay) solve(parent, round int) (*core.State, *core.Classification, *core.Result, error) {
	var state *core.State
	var delta core.PlanDelta
	_ = r.timed("nmdb.snapshot_delta", parent, round, func() error {
		state, delta = r.db.SnapshotStateDelta(thresholds)
		return nil
	})
	if v := r.topo.Version(); v != r.graphVer {
		delta.TopologyChanged = true
		r.graphVer = v
	}
	r.changed += len(delta.Changed)
	if err := r.timed("graph.validate", parent, round, r.topo.Validate); err != nil {
		return nil, nil, nil, err
	}
	var cls *core.Classification
	err := r.timed("core.classify", parent, round, func() (err error) {
		cls, err = core.Classify(state, thresholds)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var res *core.Result
	start := time.Since(r.tr.epoch)
	err = r.timed("core.planner", parent, round, func() (err error) {
		res, err = r.planner.SolveClassifiedDelta(state, cls, &delta)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// The planner reports its own split; render it as child spans laid
	// end to end from the call's start. What is left is its self time.
	planner := len(r.tr.spans) - 1
	r.tr.add("core.route", start, start+res.RouteDuration, planner, round)
	r.tr.add("core.solve", start+res.RouteDuration, start+res.RouteDuration+res.SolveDuration, planner, round)
	r.samples["core.route"] = append(r.samples["core.route"], us(res.RouteDuration))
	r.samples["core.solve"] = append(r.samples["core.solve"], us(res.SolveDuration))
	calls := r.samples["core.planner"]
	r.samples["core.planner_self"] = append(r.samples["core.planner_self"],
		calls[len(calls)-1]-us(res.RouteDuration)-us(res.SolveDuration))
	return state, cls, res, nil
}

// liveSpans records what was observed of the real round from outside:
// the driver's own timestamps and the client callbacks'.
func (r *replay) liveSpans(round int, tm tickTimes) {
	root := r.tr.add("round", tm.t0, tm.t3, -1, round)
	r.tr.add("manager.ingest", tm.t0, tm.t1, root, round)
	tick := r.tr.add("manager.tick", tm.t1, tm.t2, root, round)
	if tm.firstHost > 0 {
		r.tr.add("manager.decide", tm.t1, tm.firstHost, tick, round)
		r.tr.add("manager.dispatch", tm.firstHost, tm.t2, tick, round)
	}
	r.tr.add("manager.redirect_tail", tm.t2, tm.t3, root, round)
}

// codecReps is how many encodes and decodes one round's codec sample
// averages over.
const codecReps = 64

// round replays one round on the shadow, outside the timed window. In the
// round workloads the shadow is fed the step's STATs and link edits. Under
// ingest_flood the generator cannot know which values the manager's
// snapshot caught, so the shadow is fed the utilizations the manager
// reports having classified.
func (r *replay) round(round int, f *fleet, st step, rep *cluster.PlacementReport) error {
	start := time.Since(r.tr.epoch)
	root := r.tr.add("replay", start, start, -1, round)

	type stat struct {
		node int
		util float64
	}
	var stats []stat
	if r.flood {
		c := rep.Result.Classification
		for bi, b := range c.Busy {
			stats = append(stats, stat{b, thresholds.CMax + c.Cs[bi]})
		}
		for cj, cand := range c.Candidates {
			stats = append(stats, stat{cand, thresholds.COMax - c.Cd[cj]})
		}
	} else {
		for _, n := range st.senders {
			stats = append(stats, stat{n.id, n.util})
		}
	}
	// serveConn hands RecordStats runs of one node's reports; replay the
	// same shape at the batch size the manager is actually seeing.
	batchSize := int(ratio(float64(f.ingested.Value()), float64(f.batches.Value())) + 0.5)
	if batchSize < 1 {
		batchSize = 1
	}
	now := time.Now()
	for _, s := range stats {
		r.batch = r.batch[:0]
		for k := 0; k < batchSize; k++ {
			r.batch = append(r.batch, cluster.Stat{Node: s.node, UtilPct: s.util, DataMb: statDataMb, NumAgents: statAgents, At: now})
		}
		t0 := time.Since(r.tr.epoch)
		err := r.db.RecordStats(r.batch)
		t1 := time.Since(r.tr.epoch)
		if err != nil {
			return err
		}
		r.tr.add("nmdb.record_stats", t0, t1, root, round)
		r.samples["nmdb.record_stats_per_stat"] = append(r.samples["nmdb.record_stats_per_stat"],
			float64(t1-t0)/float64(batchSize))
	}
	for _, e := range st.edits {
		r.topo.SetUtilization(e.id, e.util)
	}

	state, cls, res, err := r.solve(root, round)
	if err != nil {
		return err
	}
	if err := sameObjective("replay", res.Objective, rep.Result.Objective); err != nil {
		return err
	}
	err = r.timed("lp.cold_solve", root, round, func() error {
		_, err := lp.SolveTransport(lp.TransportProblem{Supply: cls.Cs, Demand: cls.Cd, Cost: res.Routes.Seconds})
		return err
	})
	if err != nil {
		return err
	}
	if res.SolveMode() == "cold" {
		solves, colds := r.samples["core.solve"], r.samples["lp.cold_solve"]
		r.samples["core.solve_prep"] = append(r.samples["core.solve_prep"],
			solves[len(solves)-1]-colds[len(colds)-1])
	}
	err = r.timed("verify.check", root, round, func() error {
		return verify.CheckResult(state, res, core.SolverTransport)
	})
	if err != nil {
		return err
	}
	_ = r.timed("graph.dp", root, round, func() error {
		graph.HopBoundedShortest(r.topo, cls.Busy[0], r.params.MaxHops, r.cost)
		return nil
	})

	// The codec on the workload's STAT frame, the way tcpConn uses it.
	s := stats[0]
	frame := proto.Message{
		Type: proto.MsgStat, From: int32(s.node), To: cluster.ManagerNode, Seq: uint64(round),
		UtilPct: s.util, DataMb: statDataMb, NumAgents: statAgents,
	}
	t0 := time.Now()
	for k := 0; k < codecReps; k++ {
		r.encBuf = proto.AppendEncode(r.encBuf[:0], &frame)
	}
	t1 := time.Now()
	for k := 0; k < codecReps; k++ {
		if _, err := proto.Decode(r.encBuf); err != nil {
			return err
		}
	}
	t2 := time.Now()
	r.frameSize = len(r.encBuf)
	r.samples["proto.encode"] = append(r.samples["proto.encode"], float64(t1.Sub(t0))/codecReps)
	r.samples["proto.decode"] = append(r.samples["proto.decode"], float64(t2.Sub(t1))/codecReps)

	r.tr.spans[root].EndNs = int64(time.Since(r.tr.epoch))
	return nil
}

// setLayers fills in the per-layer metrics the replay measured: medians
// over rounds.
func (r *replay) setLayers(res *result) {
	for metric, sample := range map[string]string{
		"proto.encode_ns_per_frame":     "proto.encode",
		"proto.decode_ns_per_frame":     "proto.decode",
		"nmdb.record_stats_ns_per_stat": "nmdb.record_stats_per_stat",
		"nmdb.snapshot_delta_us":        "nmdb.snapshot_delta",
		"core.classify_us":              "core.classify",
		"core.route_us":                 "core.route",
		"core.solve_us":                 "core.solve",
		"core.planner_self_us":          "core.planner_self",
		"core.solve_prep_us":            "core.solve_prep",
		"lp.cold_solve_us":              "lp.cold_solve",
		"graph.validate_us":             "graph.validate",
		"graph.dp_us_per_source":        "graph.dp",
		"verify.check_us":               "verify.check",
	} {
		xs := r.samples[sample]
		res.set(metric, median(xs), len(xs))
	}
	res.set("proto.stat_frame_bytes", float64(r.frameSize), 0)
	res.set("nmdb.changed_nodes_per_round", ratio(float64(r.changed), float64(len(r.samples["core.planner"]))), 0)
}
