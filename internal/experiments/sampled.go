package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/report"
)

// SampledIngestPoint is one reporting policy's measured position on the
// ingest-cost / placement-fidelity frontier.
type SampledIngestPoint struct {
	// Config names the policy ("full", "deadband=1.5", ...).
	Config string
	// Frames is the number of frames actually sent (full STATs plus
	// heartbeats); Heartbeats and Suppressed break the interval budget
	// down further. Frames+Suppressed = Nodes×Ticks.
	Frames     uint64
	Heartbeats uint64
	Suppressed uint64
	// Bytes is the wire cost of the sent frames (encoded length plus the
	// 4-byte length prefix per frame).
	Bytes uint64
	// ByteReduction is baseline Bytes over this policy's Bytes.
	ByteReduction float64
	// IngestTime and SolveTime split the manager-side wall cost: NMDB
	// record calls versus placement rounds.
	IngestTime, SolveTime time.Duration
	// Objective is the summed placement objective across all rounds, and
	// GapPct its relative distance from the full-fidelity baseline.
	Objective float64
	GapPct    float64
	// Verified counts placement rounds that passed the independent
	// verify oracle (VerifyPlacements is on, so every round must).
	Verified int
	// ShardsReused / ShardsRebuilt are the NMDB epoch-snapshot counters:
	// suppressed intervals leave shards clean, so sampled policies keep
	// snapshot reuse high even while heartbeats flow.
	ShardsReused, ShardsRebuilt uint64
}

// SampledIngestResult is the PINT-style sampled-reporting study
// (DESIGN.md §16): the same truth sequence replayed under different
// client reporting policies against per-policy managers running with the
// staleness horizon and the placement self-audit enabled. It shows how
// many ingest bytes and record calls the deadband/probabilistic policies
// shed, and what that costs in placement objective.
type SampledIngestResult struct {
	Nodes, Ticks, Rounds int
	Points               []SampledIngestPoint
}

// sampledTick is the virtual reporting interval (one STAT decision per
// node per tick).
const sampledTick = 10 * time.Second

// RunSampledIngest replays a seeded utilization walk — busy nodes
// wandering in [88, 96], candidates in [15, 35], both far from the
// CMax/COMax thresholds relative to the deadband — through four
// reporting policies. Everything except wall times is deterministic per
// cfg.Seed.
func RunSampledIngest(cfg Config) (*SampledIngestResult, error) {
	const n = 96
	const placeEvery = 6 // one placement round per minute of virtual time
	const maxSilence = 20
	ticks := cfg.Iterations
	if ticks < 2*placeEvery {
		ticks = 2 * placeEvery
	}
	if ticks > 120 {
		ticks = 120
	}

	topoRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5a3d))
	topo := graph.RandomConnected(n, 0.05, 1000, topoRng)
	graph.RandomizeUtilization(topo, 0.3, 0.9, topoRng)

	policies := []struct {
		name   string
		policy report.Policy
	}{
		{"full", report.Policy{}},
		{"deadband=1.5", report.Policy{
			Util: report.Deadband{Abs: 1.5}, Data: report.Deadband{Abs: 5},
			Agents: report.Deadband{Abs: 0.5}, MaxSilence: maxSilence,
		}},
		{"prob=0.25", report.Policy{Prob: 0.25, MaxSilence: maxSilence}},
		{"deadband+prob=0.05", report.Policy{
			Util: report.Deadband{Abs: 1.5}, Data: report.Deadband{Abs: 5},
			Agents: report.Deadband{Abs: 0.5}, Prob: 0.05, MaxSilence: maxSilence,
		}},
	}

	res := &SampledIngestResult{Nodes: n, Ticks: ticks, Rounds: ticks / placeEvery}
	for _, pc := range policies {
		pt, err := runSampledPolicy(cfg, topo, pc.name, pc.policy, n, ticks, placeEvery, maxSilence)
		if err != nil {
			return nil, fmt.Errorf("experiments: sampled ingest %q: %w", pc.name, err)
		}
		res.Points = append(res.Points, *pt)
	}
	base := &res.Points[0]
	base.ByteReduction = 1
	for i := 1; i < len(res.Points); i++ {
		p := &res.Points[i]
		if p.Bytes > 0 {
			p.ByteReduction = float64(base.Bytes) / float64(p.Bytes)
		}
		if base.Objective != 0 {
			gap := (p.Objective - base.Objective) / base.Objective
			if gap < 0 {
				gap = -gap
			}
			p.GapPct = 100 * gap
		}
	}
	return res, nil
}

func runSampledPolicy(cfg Config, topo *graph.Graph, name string, policy report.Policy,
	n, ticks, placeEvery, maxSilence int) (*SampledIngestPoint, error) {
	// The virtual clock is an atomic so the manager's stale-records gauge
	// (read from metric gathers, if any) can never race the driver.
	baseTime := time.Unix(1_000, 0)
	var clockNs atomic.Int64
	clockNs.Store(baseTime.UnixNano())
	now := func() time.Time { return time.Unix(0, clockNs.Load()) }

	params := core.DefaultParams()
	params.PathStrategy = core.PathDP
	params.Parallelism = cfg.Parallelism
	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:   topo,
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 1},
		Params:     params,
		NMDBShards: cfg.NMDBShards,
		Now:        now,
		// Three grace intervals past the worst-case heartbeat cadence:
		// a policy-compliant client can never be classified stale.
		StalenessHorizon: time.Duration(maxSilence+3) * sampledTick,
		VerifyPlacements: true,
	})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	db := mgr.NMDB()

	// Per-node truth walks (identical across policies: same seed, same
	// draw order) and per-node reporters.
	walkRng := rand.New(rand.NewSource(cfg.Seed ^ 0x1be7))
	truth := make([]float64, n)
	data := make([]float64, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	reporters := make([]*report.Reporter, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			lo[i], hi[i] = 88, 96 // busy band, well above CMax 80
		} else {
			lo[i], hi[i] = 15, 35 // candidate band, well below COMax 50
		}
		truth[i] = lo[i] + (hi[i]-lo[i])*walkRng.Float64()
		data[i] = 10 + 20*walkRng.Float64()
		p := policy
		p.Seed = cfg.Seed + int64(i) + 1
		reporters[i] = report.NewReporter(p)
		if err := db.Register(i, true, 0, 0); err != nil {
			return nil, err
		}
	}
	step := func(i int) {
		truth[i] += walkRng.Float64()*0.8 - 0.4
		if truth[i] < lo[i] {
			truth[i] = lo[i]
		} else if truth[i] > hi[i] {
			truth[i] = hi[i]
		}
		data[i] += walkRng.Float64()*2 - 1
		if data[i] < 0 {
			data[i] = 0
		}
	}

	pt := &SampledIngestPoint{Config: name}
	for tick := 0; tick < ticks; tick++ {
		clockNs.Store(baseTime.Add(time.Duration(tick) * sampledTick).UnixNano())
		at := now()
		for i := 0; i < n; i++ {
			step(i)
			r := reporters[i]
			switch r.Decide(truth[i], data[i], 1) {
			case report.Send:
				msg := &proto.Message{
					Type: proto.MsgStat, From: int32(i), To: cluster.ManagerNode,
					UtilPct: truth[i], DataMb: data[i], NumAgents: 1,
					StatSuppressed: r.SuppressedSinceFrame(),
				}
				pt.Bytes += uint64(len(proto.Encode(msg)) + 4)
				pt.Frames++
				start := time.Now()
				err := db.RecordStat(i, truth[i], data[i], 1, at)
				pt.IngestTime += time.Since(start)
				if err != nil {
					return nil, err
				}
				r.Sent(truth[i], data[i], 1)
			case report.Heartbeat:
				util, dataMb, agents := r.LastSent()
				msg := &proto.Message{
					Type: proto.MsgStat, From: int32(i), To: cluster.ManagerNode,
					UtilPct: util, DataMb: dataMb, NumAgents: agents,
					StatHeartbeat: true, StatSuppressed: r.SuppressedSinceFrame(),
				}
				pt.Bytes += uint64(len(proto.Encode(msg)) + 4)
				pt.Frames++
				pt.Heartbeats++
				start := time.Now()
				err := db.RecordHeartbeat(i, at)
				pt.IngestTime += time.Since(start)
				if err != nil {
					return nil, err
				}
				r.SentHeartbeat()
			case report.Suppress:
				pt.Suppressed++
				r.Suppressed()
			}
		}
		if (tick+1)%placeEvery == 0 {
			start := time.Now()
			rep, err := mgr.RunPlacement()
			pt.SolveTime += time.Since(start)
			if err != nil {
				// VerifyPlacements is on: an oracle violation surfaces here.
				return nil, err
			}
			if rep.Result != nil && rep.Result.Status == core.StatusOptimal {
				pt.Objective += rep.Result.Objective
			}
			pt.Verified++
		}
	}
	st := db.Stats()
	pt.ShardsReused, pt.ShardsRebuilt = st.SnapshotShardsReused, st.SnapshotShardsRebuilt
	return pt, nil
}

// Table renders the frontier.
func (r *SampledIngestResult) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Config,
			fmt.Sprintf("%d", p.Frames),
			fmt.Sprintf("%d", p.Heartbeats),
			fmt.Sprintf("%d", p.Suppressed),
			fmt.Sprintf("%d", p.Bytes),
			f2(p.ByteReduction) + "×",
			fdur(p.IngestTime),
			f2(p.GapPct) + "%",
			fmt.Sprintf("%d/%d", p.Verified, r.Rounds),
		})
	}
	return fmt.Sprintf(
		"Sampled ingest — reporting-policy frontier (%d nodes, %d intervals of %s, placement every minute)\n",
		r.Nodes, r.Ticks, sampledTick) +
		table([]string{"policy", "frames", "hb", "suppressed", "bytes", "reduction", "ingest", "obj gap", "verified"}, rows)
}
