package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/proto"
)

// DynamicResult summarizes a multi-round closed-loop run of the full DUST
// control plane (Manager + Clients over the real message protocol) under
// drifting load, destination failures, and reclaim — the dynamic,
// usage-based operation of Section III that the paper describes but does
// not quantify.
type DynamicResult struct {
	Rounds        int
	Offloads      int
	Substitutions int
	// Releases counts pairs placement rounds withdrew: their origin
	// stopped classifying busy or the plan moved them.
	Releases int
	// LedgerChecks counts rounds whose NMDB ledger matched, pair for pair,
	// the ledger replayed from the placement reports and substitutions.
	LedgerChecks int
	// OverloadRoundsDUST counts node-rounds spent at or above CMax with
	// DUST active; OverloadRoundsBaseline the same without offloading.
	OverloadRoundsDUST     int
	OverloadRoundsBaseline int
	// ReliefPct is the reduction of overload exposure DUST achieves.
	ReliefPct float64
	// FinalHosted is the total capacity still hosted at the end.
	FinalHosted float64
}

// dynamicModel is the shared load model: clients report their demand
// (base) in STATs, and the experiment replays the placement reports and
// substitutions into pairs to know what every node actually carries.
type dynamicModel struct {
	mu    sync.Mutex
	base  []float64 // random-walk intrinsic load: the demand STATs report
	pairs map[[2]int]float64
}

func (m *dynamicModel) demand(n int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base[n]
}

// effectiveLocked is the load node n carries: its demand, minus what it
// redirects away, plus what it hosts for others.
func (m *dynamicModel) effectiveLocked(n int) float64 {
	u := m.base[n]
	for p, amt := range m.pairs {
		if p[0] == n {
			u -= amt
		}
		if p[1] == n {
			u += amt
		}
	}
	if u < 0 {
		u = 0
	}
	if u > 100 {
		u = 100
	}
	return u
}

// RunDynamic drives cfg.Iterations rounds (one per virtual minute) of the
// closed control loop on the Figure-4-scale topology.
func RunDynamic(cfg Config) (*DynamicResult, error) {
	const n = 20
	rng := rand.New(rand.NewSource(cfg.Seed))
	topo := graph.FatTree(4, 1000)
	graph.RandomizeUtilization(topo, 0.2, 0.8, rng)
	th := core.Thresholds{CMax: 80, COMax: 50, XMin: 10}

	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	params := core.DefaultParams()
	params.Thresholds = th
	params.PathStrategy = core.PathDP
	params.Parallelism = cfg.Parallelism
	mgr, err := cluster.NewManager(cluster.ManagerConfig{
		Topology:          topo,
		Defaults:          th,
		Params:            params,
		NMDBShards:        cfg.NMDBShards,
		UpdateIntervalSec: 60,
		KeepaliveTimeout:  150 * time.Second,
		AckTimeout:        5 * time.Second,
		Now:               now,
	})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()

	model := &dynamicModel{
		base:  make([]float64, n),
		pairs: make(map[[2]int]float64),
	}
	for i := range model.base {
		model.base[i] = 30 + 40*rng.Float64()
	}

	clients := make([]*cluster.Client, n)
	for i := 0; i < n; i++ {
		i := i
		clientEnd, managerEnd := proto.Pipe(32)
		cl, err := cluster.NewClient(cluster.ClientConfig{
			Node: i, Capable: true,
			Resources: func() cluster.Resources {
				return cluster.Resources{UtilPct: model.demand(i), DataMb: 50, NumAgents: 10}
			},
		}, clientEnd)
		if err != nil {
			return nil, err
		}
		attachErr := make(chan error, 1)
		go func() {
			_, err := mgr.Attach(managerEnd)
			attachErr <- err
		}()
		if err := cl.Handshake(); err != nil {
			return nil, err
		}
		if err := <-attachErr; err != nil {
			return nil, err
		}
		clients[i] = cl
		go func() {
			for {
				if _, err := cl.Step(); err != nil {
					return
				}
			}
		}()
	}

	res := &DynamicResult{Rounds: cfg.Iterations * 2}
	failedDest := -1
	for round := 0; round < res.Rounds; round++ {
		advance(time.Minute)

		// Load drift: bounded random walk.
		model.mu.Lock()
		for i := range model.base {
			model.base[i] += rng.NormFloat64() * 6
			if model.base[i] < 10 {
				model.base[i] = 10
			}
			if model.base[i] > 100 {
				model.base[i] = 100
			}
			// Baseline exposure: the same walk with no offloading.
			if model.base[i] >= th.CMax {
				res.OverloadRoundsBaseline++
			}
			if model.effectiveLocked(i) >= th.CMax {
				res.OverloadRoundsDUST++
			}
		}
		model.mu.Unlock()

		// STAT from every client; wait for the NMDB to reflect it.
		for i, cl := range clients {
			if err := cl.SendStat(); err != nil {
				return nil, err
			}
			want := model.demand(i)
			if err := waitNMDB(mgr, i, want); err != nil {
				return nil, err
			}
		}

		// Destinations keepalive unless failed.
		for _, dest := range mgr.NMDB().Destinations() {
			if dest == failedDest {
				continue
			}
			if err := clients[dest].SendKeepalive(); err != nil {
				return nil, err
			}
		}
		subs, err := mgr.CheckKeepalives()
		if err != nil {
			return nil, err
		}
		model.mu.Lock()
		for _, s := range subs {
			res.Substitutions++
			delete(model.pairs, [2]int{s.Busy, s.Failed})
			if s.Replica >= 0 {
				// With no replica the origin takes its load back.
				model.pairs[[2]int{s.Busy, s.Replica}] += s.Amount
			}
		}
		if len(subs) > 0 {
			failedDest = -1
		}
		model.mu.Unlock()

		// Placement round: it converges the ledger to the plan for the
		// current demand, releasing the pairs of origins that recovered.
		report, err := mgr.RunPlacement()
		if err != nil {
			return nil, err
		}
		model.mu.Lock()
		for _, a := range report.Released {
			res.Releases++
			delete(model.pairs, [2]int{a.Busy, a.Candidate})
		}
		for _, a := range report.Accepted {
			model.pairs[[2]int{a.Busy, a.Candidate}] = a.Amount
		}
		res.Offloads += len(report.Accepted) - report.Kept
		err = ledgerMatches(mgr, model.pairs)
		model.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("experiments: round %d: %w", round, err)
		}
		res.LedgerChecks++

		// Occasionally a destination goes silent.
		if failedDest < 0 && rng.Float64() < 0.15 {
			if dests := mgr.NMDB().Destinations(); len(dests) > 0 {
				failedDest = dests[rng.Intn(len(dests))]
			}
		}
	}

	model.mu.Lock()
	for _, amt := range model.pairs {
		res.FinalHosted += amt
	}
	model.mu.Unlock()
	if res.OverloadRoundsBaseline > 0 {
		res.ReliefPct = (1 - float64(res.OverloadRoundsDUST)/float64(res.OverloadRoundsBaseline)) * 100
	}
	return res, nil
}

func waitNMDB(mgr *cluster.Manager, node int, want float64) error {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := mgr.NMDB().Client(node)
		if ok && rec.UtilPct == want {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("experiments: STAT from node %d never recorded", node)
}

// ledgerMatches checks the manager's ledger against the pairs replayed
// from the placement reports and substitutions, pair for pair.
func ledgerMatches(mgr *cluster.Manager, pairs map[[2]int]float64) error {
	ledger := mgr.NMDB().ActiveAssignments()
	if len(ledger) != len(pairs) {
		return fmt.Errorf("ledger has %d pairs, the reports replay to %d", len(ledger), len(pairs))
	}
	for _, a := range ledger {
		want, ok := pairs[[2]int{a.Busy, a.Candidate}]
		if !ok || math.Abs(a.Amount-want) > 1e-9 {
			return fmt.Errorf("ledger pair %d→%d = %g, the reports replay to %g", a.Busy, a.Candidate, a.Amount, want)
		}
	}
	return nil
}

// Table renders the run summary.
func (r *DynamicResult) Table() string {
	rows := [][]string{
		{"rounds (virtual minutes)", fmt.Sprintf("%d", r.Rounds)},
		{"offload placements accepted", fmt.Sprintf("%d", r.Offloads)},
		{"destination substitutions (REP)", fmt.Sprintf("%d", r.Substitutions)},
		{"pairs released by placement rounds", fmt.Sprintf("%d", r.Releases)},
		{"overload node-rounds, baseline", fmt.Sprintf("%d", r.OverloadRoundsBaseline)},
		{"overload node-rounds, DUST", fmt.Sprintf("%d", r.OverloadRoundsDUST)},
		{"overload relief", f1(r.ReliefPct) + "%"},
		{"capacity still hosted at end", f1(r.FinalHosted) + " pts"},
	}
	return "Dynamic closed-loop control plane (Section III workflows)\n" +
		table([]string{"metric", "value"}, rows)
}
