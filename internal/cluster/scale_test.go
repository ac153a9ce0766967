package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/verify"
)

// registerAll registers nodes [0,n) as capable with a deterministic STAT.
func registerAll(t testing.TB, db *NMDB, n int) {
	t.Helper()
	base := time.Unix(1000, 0)
	for i := 0; i < n; i++ {
		if err := db.Register(i, true, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.RecordStat(i, float64(i%100), 10, 1, base); err != nil {
			t.Fatal(err)
		}
	}
}

// statesEqual compares the optimizer-relevant fields of two states.
func statesEqual(a, b *core.State) bool {
	for i := range a.Util {
		if a.Util[i] != b.Util[i] || a.DataMb[i] != b.DataMb[i] || a.Offloadable[i] != b.Offloadable[i] {
			return false
		}
	}
	return true
}

// TestSnapshotStateMatchesBuildState drives random mutation sequences and
// checks the epoch snapshot always agrees with a fresh BuildState.
func TestSnapshotStateMatchesBuildState(t *testing.T) {
	const n = 64
	db := NewNMDBSharded(graph.Line(n, 100), 8)
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	registerAll(t, db, n)
	rng := rand.New(rand.NewSource(3))
	at := time.Unix(2000, 0)
	for step := 0; step < 200; step++ {
		switch rng.Intn(5) {
		case 0: // drift a few STATs
			for k := 0; k < 1+rng.Intn(4); k++ {
				node := rng.Intn(n)
				if err := db.RecordStat(node, rng.Float64()*100, rng.Float64()*50, 1, at); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // re-register with a capability flip
			db.Register(rng.Intn(n), rng.Intn(2) == 0, 0, 0)
		case 2: // keepalives must not invalidate anything
			db.RecordKeepalive(rng.Intn(n), at)
		case 3: // quiet step: snapshot twice in a row
		case 4: // batch ingest
			var batch []Stat
			for k := 0; k < 1+rng.Intn(8); k++ {
				batch = append(batch, Stat{Node: rng.Intn(n), UtilPct: rng.Float64() * 100, DataMb: 5, NumAgents: 2, At: at})
			}
			if err := db.RecordStats(batch); err != nil {
				t.Fatal(err)
			}
		}
		snap := db.SnapshotState(defaults)
		fresh := db.BuildState(defaults)
		if !statesEqual(snap, fresh) {
			t.Fatalf("step %d: snapshot diverged from BuildState", step)
		}
	}
	st := db.Stats()
	if st.SnapshotShardsReused == 0 {
		t.Fatal("no shard copies were ever reused across 200 ticks")
	}
	if st.SnapshotShardsRebuilt == 0 {
		t.Fatal("no shard was ever rebuilt")
	}
}

// TestSnapshotStateAliasing pins the documented buffer contract: a
// snapshot stays intact through the next call and is overwritten by the
// second-next; a defaults change invalidates reuse rather than serving a
// stale neutral value.
func TestSnapshotStateAliasing(t *testing.T) {
	const n = 8
	db := NewNMDBSharded(graph.Line(n, 100), 4)
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	registerAll(t, db, n)

	s1 := db.SnapshotState(defaults)
	u1 := append([]float64(nil), s1.Util...)
	s2 := db.SnapshotState(defaults)
	if s1 == s2 {
		t.Fatal("consecutive snapshots returned the same buffer")
	}
	for i := range u1 {
		if s1.Util[i] != u1[i] {
			t.Fatal("previous snapshot mutated by the next call")
		}
	}
	s3 := db.SnapshotState(defaults)
	if s3 != s1 {
		t.Fatal("double buffering should reuse the buffer from two calls ago")
	}

	// Unregistered nodes carry the defaults-derived neutral utilization, so
	// a thresholds change must rebuild even when no shard seq moved.
	db2 := NewNMDBSharded(graph.Line(4, 100), 2)
	a := db2.SnapshotState(core.Thresholds{CMax: 80, COMax: 50, XMin: 5})
	if got, want := a.Util[0], 65.0; got != want {
		t.Fatalf("neutral util = %g, want %g", got, want)
	}
	bSt := db2.SnapshotState(core.Thresholds{CMax: 90, COMax: 30, XMin: 5})
	if got, want := bSt.Util[0], 60.0; got != want {
		t.Fatalf("neutral util after defaults change = %g, want %g", got, want)
	}
}

// TestRecordStatsBatch covers the batched ingest path: all registered
// nodes apply, unknown nodes are reported without poisoning the rest.
func TestRecordStatsBatch(t *testing.T) {
	const n = 16
	db := NewNMDBSharded(graph.Line(n, 100), 4)
	registerAll(t, db, n-1) // node 15 stays unregistered
	at := time.Unix(5000, 0)
	batch := []Stat{
		{Node: 2, UtilPct: 91, DataMb: 7, NumAgents: 3, At: at},
		{Node: 15, UtilPct: 50, At: at}, // unregistered
		{Node: 10, UtilPct: 33, DataMb: 4, NumAgents: 1, At: at},
	}
	err := db.RecordStats(batch)
	if err == nil {
		t.Fatal("unregistered node in batch should surface an error")
	}
	r2, _ := db.Client(2)
	r10, _ := db.Client(10)
	if r2.UtilPct != 91 || r10.UtilPct != 33 || !r2.LastStat.Equal(at) {
		t.Fatalf("batch partially applied: %+v %+v", r2, r10)
	}
	if err := db.RecordStats(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	// A single-node batch (the serveConn shape) must behave like applying
	// the reports in order: the newest wins.
	sameNode := []Stat{
		{Node: 5, UtilPct: 10, DataMb: 1, NumAgents: 1, At: at},
		{Node: 5, UtilPct: 20, DataMb: 2, NumAgents: 2, At: at.Add(time.Second)},
		{Node: 5, UtilPct: 30, DataMb: 3, NumAgents: 3, At: at.Add(2 * time.Second)},
	}
	if err := db.RecordStats(sameNode); err != nil {
		t.Fatalf("single-node batch: %v", err)
	}
	r5, _ := db.Client(5)
	if r5.UtilPct != 30 || r5.DataMb != 3 || r5.NumAgents != 3 || !r5.LastStat.Equal(at.Add(2*time.Second)) {
		t.Fatalf("single-node batch did not apply newest report: %+v", r5)
	}
}

// TestNMDBConcurrentAccess hammers every NMDB entry point from parallel
// goroutines; run under -race (make check-race) it proves the shard and
// ledger locking composes without data races or deadlocks.
func TestNMDBConcurrentAccess(t *testing.T) {
	const n = 64
	db := NewNMDBSharded(graph.Line(n, 100), 8)
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	registerAll(t, db, n)
	const iters = 300
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}
	at := time.Unix(9000, 0)
	run(func(i int) { db.RecordStat(i%n, float64(i%100), 5, 1, at) })
	run(func(i int) { db.RecordKeepalive(i%n, at) })
	run(func(i int) {
		db.RecordStats([]Stat{
			{Node: i % n, UtilPct: 10, At: at},
			{Node: (i + 7) % n, UtilPct: 20, At: at},
		})
	})
	run(func(i int) { db.Register(i%n, i%3 != 0, 0, 0) })
	run(func(i int) { db.BuildState(defaults) })
	run(func(i int) { db.SnapshotState(defaults) })
	run(func(i int) {
		db.RecordOffload([]core.Assignment{{Busy: i % n, Candidate: (i + 1) % n, Amount: 1}})
	})
	run(func(i int) { db.SyncHosting(i%n, (i+1)%n, 2) })
	run(func(i int) { db.ReleaseBusy(i % n) })
	run(func(i int) { db.ReleaseDestination((i + 1) % n) })
	run(func(i int) { db.Client(i % n) })
	run(func(i int) { db.Nodes() })
	run(func(i int) { db.ActiveAssignments() })
	run(func(i int) { db.Destinations() })
	run(func(i int) { db.thresholdsFor(i%n, defaults) })
	run(func(i int) { db.SetRole(i%n, core.RoleNeutral) })
	run(func(i int) {
		if i%50 == 0 {
			var buf bytes.Buffer
			db.SaveSnapshot(&buf)
		}
	})
	wg.Wait()
}

// TestSnapshotSurvivesLoad checks LoadSnapshot invalidates the epoch
// snapshot: the next SnapshotState must reflect the restored records.
func TestSnapshotSurvivesLoad(t *testing.T) {
	const n = 8
	defaults := core.Thresholds{CMax: 80, COMax: 50, XMin: 5}
	db := NewNMDBSharded(graph.Line(n, 100), 4)
	registerAll(t, db, n)
	db.RecordStat(3, 97, 42, 1, time.Unix(1, 0))
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	db2 := NewNMDBSharded(graph.Line(n, 100), 4)
	db2.SnapshotState(defaults) // prime the epoch buffers pre-restore
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s := db2.SnapshotState(defaults)
	if s.Util[3] != 97 || s.DataMb[3] != 42 {
		t.Fatalf("snapshot after restore: util=%g data=%g", s.Util[3], s.DataMb[3])
	}
}

// seedNMDB replicates the pre-sharding client registry — one global
// mutex, map-backed records, one lock acquisition per STAT — as the
// baseline BenchmarkNMDBIngestParallel compares the striped dense
// registry against.
type seedNMDB struct {
	mu      sync.Mutex
	clients map[int]*ClientRecord
}

func (db *seedNMDB) recordStat(node int, utilPct, dataMb float64, numAgents int, at time.Time) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.clients[node]
	if !ok {
		return errUnregisteredBench
	}
	rec.UtilPct = utilPct
	rec.DataMb = dataMb
	rec.NumAgents = numAgents
	rec.LastStat = at
	return nil
}

var errUnregisteredBench = fmt.Errorf("bench: unregistered")

// benchStats prebuilds report streams (deterministic node spread across
// the registry) so the timed loops measure registry apply cost, not
// message assembly — codec cost is measured in internal/proto.
func benchStats(n, count int) []Stat {
	rng := rand.New(rand.NewSource(99))
	at := time.Unix(1, 0)
	stats := make([]Stat, count)
	for i := range stats {
		stats[i] = Stat{Node: rng.Intn(n), UtilPct: 50, DataMb: 5, NumAgents: 1, At: at}
	}
	return stats
}

// BenchmarkNMDBIngestParallel measures STAT ingest throughput at 8
// goroutines (GOMAXPROCS is pinned to 8 so the goroutine count and the
// contention profile are identical on every host). seed-mutex1/stat is
// the pre-sharding design: one registry mutex and a map lookup per
// report. shards8/stat isolates lock striping plus dense record storage;
// shards8/batch64 adds the manager's actual ingest shape (serveConn
// coalesces runs of queued STATs into RecordStats batches).
func BenchmarkNMDBIngestParallel(b *testing.B) {
	const n = 1024
	const batchLen = 64
	stats := benchStats(n, 1<<14)
	run := func(b *testing.B, loop func(pb *testing.PB)) {
		prev := runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
		b.SetParallelism(1) // 8 procs × 1 = 8 goroutines
		b.ResetTimer()
		b.RunParallel(loop)
	}
	b.Run("seed-mutex1/stat", func(b *testing.B) {
		db := &seedNMDB{clients: make(map[int]*ClientRecord)}
		for i := 0; i < n; i++ {
			db.clients[i] = &ClientRecord{Node: i, registered: true}
		}
		run(b, func(pb *testing.PB) {
			i := rand.Intn(len(stats))
			for pb.Next() {
				st := &stats[i%len(stats)]
				i++
				db.recordStat(st.Node, st.UtilPct, st.DataMb, st.NumAgents, st.At)
			}
		})
	})
	b.Run("shards8/stat", func(b *testing.B) {
		db := NewNMDBSharded(graph.Line(n, 100), 8)
		registerAll(b, db, n)
		run(b, func(pb *testing.PB) {
			i := rand.Intn(len(stats))
			for pb.Next() {
				st := &stats[i%len(stats)]
				i++
				db.RecordStat(st.Node, st.UtilPct, st.DataMb, st.NumAgents, st.At)
			}
		})
	})
	b.Run("shards8/batch64", func(b *testing.B) {
		// The shape flushStats actually produces: a run of reports queued
		// on one connection, hence one node per batch. One benchmark op is
		// one stat; every 64th op applies a prebuilt 64-stat batch.
		db := NewNMDBSharded(graph.Line(n, 100), 8)
		registerAll(b, db, n)
		batches := make([][]Stat, 256)
		for i := range batches {
			node := rand.Intn(n)
			batch := make([]Stat, batchLen)
			for j := range batch {
				batch[j] = Stat{Node: node, UtilPct: float64(j), DataMb: 5, NumAgents: 1, At: time.Unix(1, 0)}
			}
			batches[i] = batch
		}
		run(b, func(pb *testing.PB) {
			bi := rand.Intn(len(batches))
			k := 0
			for pb.Next() {
				if k++; k == batchLen {
					db.RecordStats(batches[bi%len(batches)])
					bi++
					k = 0
				}
			}
		})
	})
	b.Run("shards8/batch64-mixed", func(b *testing.B) {
		// Worst-case batches spanning many nodes and shards, exercising
		// the counting-sort grouping instead of the single-node collapse.
		db := NewNMDBSharded(graph.Line(n, 100), 8)
		registerAll(b, db, n)
		run(b, func(pb *testing.PB) {
			off := rand.Intn(len(stats) - batchLen)
			k := 0
			for pb.Next() {
				if k++; k == batchLen {
					db.RecordStats(stats[off : off+batchLen])
					off = (off + batchLen) % (len(stats) - batchLen)
					k = 0
				}
			}
		})
	})
}

// tickBench builds a manager over a random 160-node topology with a
// stable busy/candidate split and 10% per-tick STAT drift that preserves
// every node's role.
type tickBench struct {
	mgr  *Manager
	topo *graph.Graph
	rng  *rand.Rand
	n    int
}

// tickDefaults are the thresholds every tick-bench node classifies under.
var tickDefaults = core.Thresholds{CMax: 80, COMax: 50, XMin: 1}

func newTickBench(tb testing.TB) *tickBench {
	const n = 160
	rng := rand.New(rand.NewSource(17))
	topo := graph.RandomConnected(n, 0.05, 1000, rng)
	// The paper-literal rate model reads Lu = Cap·utilization, so links
	// need nonzero utilization to carry offload traffic at all.
	graph.RandomizeUtilization(topo, 0.3, 0.9, rng)
	params := core.DefaultParams()
	// Exhaustive route enumeration is exponential on a 160-node random
	// graph; the DP strategy computes the same Eq. 2 minima in polynomial
	// time and keeps the benchmark about solve cost, not path counting.
	params.PathStrategy = core.PathDP
	mgr, err := NewManager(ManagerConfig{
		Topology: topo,
		Defaults: tickDefaults,
		Params:   params,
		// Every tick's result passes the independent verify oracle before
		// it counts.
		VerifyPlacements: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Unix(1, 0)
	for i := 0; i < n; i++ {
		if err := mgr.NMDB().Register(i, true, 0, 0); err != nil {
			tb.Fatal(err)
		}
		if err := mgr.NMDB().RecordStat(i, bandUtil(rng, i%3 == 0), 20, 1, at); err != nil {
			tb.Fatal(err)
		}
	}
	return &tickBench{mgr: mgr, topo: topo, rng: rng, n: n}
}

// bandUtil draws a utilization inside the busy band (well above CMax 80)
// or the candidate band (below COMax 50). A third of the nodes run hot.
func bandUtil(rng *rand.Rand, busy bool) float64 {
	if busy {
		return 85 + 10*rng.Float64()
	}
	return 15 + 20*rng.Float64()
}

// drift re-reports ~10% of nodes with a wiggled utilization that stays
// inside the node's role band.
func (tb *tickBench) drift() {
	at := time.Unix(2, 0)
	for i := 0; i < tb.n; i++ {
		if tb.rng.Float64() > 0.10 {
			continue
		}
		tb.mgr.NMDB().RecordStat(i, bandUtil(tb.rng, i%3 == 0), 20, 1, at)
	}
}

// drift1 re-reports exactly one node with a wiggled utilization that
// stays inside its role band: the steady-state tick shape, one client
// moved since the last round.
func (tb *tickBench) drift1() {
	i := tb.rng.Intn(tb.n)
	tb.mgr.NMDB().RecordStat(i, bandUtil(tb.rng, i%3 == 0), 20, 1, time.Unix(2, 0))
}

// flipRoles reports one busy-band node as a candidate and one
// candidate-band node as busy, so the round's busy/candidate split moves.
func (tb *tickBench) flipRoles() {
	at := time.Unix(2, 0)
	b, c := 3*tb.rng.Intn(tb.n/3), 3*tb.rng.Intn(tb.n/3)+1
	tb.mgr.NMDB().RecordStat(b, bandUtil(tb.rng, false), 20, 1, at)
	tb.mgr.NMDB().RecordStat(c, bandUtil(tb.rng, true), 20, 1, at)
}

// editLinks sets four random links to a new utilization, which reprices
// routes and makes the route cache evict.
func (tb *tickBench) editLinks() {
	for k := 0; k < 4; k++ {
		id := graph.EdgeID(tb.rng.Intn(tb.topo.NumEdges()))
		tb.topo.SetUtilization(id, 0.3+0.6*tb.rng.Float64())
	}
}

func BenchmarkManagerTickCold(b *testing.B) {
	tb := newTickBench(b)
	if _, err := tb.mgr.RunPlacement(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb.drift()
		b.StartTimer()
		if _, err := tb.mgr.RunPlacement(); err != nil {
			b.Fatal(err)
		}
	}
}

// checkTicksAgainstStateless is the manager-level exactness gate. It runs
// rounds placement rounds on one manager, applying moves[r%len(moves)]
// after round r. Every round's result must pass the verify oracle and its
// objective must equal a stateless core.SolveClassified of the same NMDB
// state. The stateless solve recomputes every route, so the manager's
// route cache, carried from round to round, is checked against a
// from-scratch table. It returns the route cache's counters.
func checkTicksAgainstStateless(t *testing.T, rounds int, moves ...func(*tickBench)) core.CacheStats {
	t.Helper()
	tb := newTickBench(t)
	params := tb.mgr.planner.Params()
	for round := 0; round < rounds; round++ {
		rep, err := tb.mgr.RunPlacement()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result == nil {
			t.Fatalf("round %d: missing result", round)
		}
		state := tb.mgr.NMDB().BuildState(tickDefaults)
		if err := verify.CheckResult(state, rep.Result, core.SolverTransport); err != nil {
			t.Fatalf("round %d: result failed verification: %v", round, err)
		}
		cls, err := core.Classify(state, tickDefaults)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.SolveClassified(state, cls, params)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Status != want.Status {
			t.Fatalf("round %d: manager status %v, stateless %v", round, rep.Result.Status, want.Status)
		}
		tol := 1e-6 * (1 + math.Abs(want.Objective))
		if math.Abs(rep.Result.Objective-want.Objective) > tol {
			t.Fatalf("round %d: manager objective %g, stateless %g", round, rep.Result.Objective, want.Objective)
		}
		if want.Status != core.StatusOptimal {
			t.Fatalf("round %d: status %v, want an optimal fixture", round, want.Status)
		}
		moves[round%len(moves)](tb)
	}
	return tb.mgr.RouteCacheStats()
}

// TestWarmTickMatchesColdTick compares a warm manager, one whose route
// cache and ledger carry over from earlier rounds, with a cold stateless
// solve, over the tick benchmarks' 10% in-band drift alternating with
// role flips.
func TestWarmTickMatchesColdTick(t *testing.T) {
	st := checkTicksAgainstStateless(t, 12, (*tickBench).drift, (*tickBench).flipRoles)
	if st.Hits == 0 {
		t.Fatalf("route cache never hit: %+v", st)
	}
}

// TestRepairTickMatchesColdTick compares the manager with a cold
// stateless solve over rounds cycling 1-client drift, role flips and
// link edits. Link edits reprice routes, so the route cache must evict
// and rebuild the stale rows; the run must both hit and evict.
func TestRepairTickMatchesColdTick(t *testing.T) {
	st := checkTicksAgainstStateless(t, 18, (*tickBench).drift1, (*tickBench).flipRoles, (*tickBench).editLinks)
	if st.Hits == 0 || st.Evicted == 0 {
		t.Fatalf("route cache never both hit and evicted: %+v", st)
	}
}
