package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/verify"
)

// waitLimit bounds every wait on the system under test: a STAT that never
// shows in the ingest counter or a redirect that never arrives fails the
// run instead of hanging it.
const waitLimit = 5 * time.Second

// node is one DUST-Client session of the fleet.
type node struct {
	id     int
	client *cluster.Client
	conn   proto.Conn
	// util is the utilization the node's next STAT carries. It is owned by
	// the one goroutine that sends for this node (the driver in the round
	// workloads, a flood sender in ingest_flood).
	util float64
}

// fleet is the fixture every workload runs on: one in-process manager
// behind a loopback TCP listener and one real client session per node.
type fleet struct {
	topo  *graph.Graph
	mgr   *cluster.Manager
	ln    *proto.Listener
	nodes []*node
	// rng continues the seed's stream after topology and initial load, so
	// one seed fixes the fixture and every drift sequence.
	rng *rand.Rand

	served  chan struct{}
	readers sync.WaitGroup

	ingested *obs.Counter
	batches  *obs.Counter
	// sent counts STAT frames written by the driver goroutine.
	sent uint64

	// Redirect bookkeeping for the round in flight. redirSeen counts
	// OnRedirect callbacks, redirWant is published by the driver once
	// RunPlacement has returned (-1 until then), and the callback that
	// brings seen up to want pokes redirDone.
	redirMu   sync.Mutex
	redirSum  []float64
	redirN    []int
	redirSeen atomic.Int64
	redirWant atomic.Int64
	redirDone chan struct{}

	// tracing turns on the client-side timestamp behind manager.decide_ms:
	// firstHost is when the round's first Offload-Request reached a client.
	tracing   atomic.Bool
	epoch     time.Time
	firstHost atomic.Int64

	// heapPerConnKB is the heap growth over the attaches, when measured.
	heapPerConnKB float64
}

// inBand draws a utilization inside a role band: busy nodes report
// 85–95 % (above CMax 80), candidates 15–35 % (below COMax 50).
func inBand(busy bool, rng *rand.Rand) float64 {
	if busy {
		return 85 + 10*rng.Float64()
	}
	return 15 + 20*rng.Float64()
}

func isBusy(util float64) bool { return util >= thresholds.CMax }

// newFleet builds the fleet160 fixture from seed and reports how long the
// system took to come up: manager, listener, 160 handshakes, first STATs
// and two settling ticks. Topology generation is the benchmark's own input
// preparation and is not part of that time.
func newFleet(seed int64, measureHeap bool) (f *fleet, setup time.Duration, err error) {
	rng := rand.New(rand.NewSource(seed))
	topo := graph.RandomConnected(fleetNodes, fleetEdgeP, fleetCapMbps, rng)
	graph.RandomizeUtilization(topo, utilLo, utilHi, rng)
	f = &fleet{
		topo:      topo,
		rng:       rng,
		nodes:     make([]*node, fleetNodes),
		served:    make(chan struct{}),
		redirSum:  make([]float64, fleetNodes),
		redirN:    make([]int, fleetNodes),
		redirDone: make(chan struct{}, 1),
		epoch:     time.Now(),
	}
	for i := range f.nodes {
		f.nodes[i] = &node{id: i, util: inBand(i%3 == 0, rng)}
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	start := time.Now()
	if f.mgr, err = cluster.NewManager(managerConfig(topo)); err != nil {
		return f, 0, err
	}
	f.ingested = f.mgr.Metrics().Counter("dust_manager_stats_ingested_total", "")
	f.batches = f.mgr.Metrics().Counter("dust_manager_stat_batches_total", "")
	if f.ln, err = proto.Listen("127.0.0.1:0"); err != nil {
		return f, 0, err
	}
	f.ln.SetDeadlines(listenerDeadlines)
	go func() {
		defer close(f.served)
		_ = f.mgr.Serve(f.ln) // returns when close() shuts the listener
	}()

	var heapBefore uint64
	if measureHeap {
		heapBefore = heapInUse()
	}
	for _, n := range f.nodes {
		if err = f.attach(n, seed); err != nil {
			return f, 0, err
		}
	}
	if measureHeap {
		f.heapPerConnKB = (float64(heapInUse()) - float64(heapBefore)) / 1024 / fleetNodes
	}
	for _, n := range f.nodes {
		if err = n.client.SendStat(); err != nil {
			return f, 0, fmt.Errorf("first STAT of node %d: %w", n.id, err)
		}
	}
	f.sent = fleetNodes
	// A STAT is only ingested by a session the manager has fully
	// registered, so this also waits out the tail of every Attach.
	if err = f.awaitIngested(); err != nil {
		return f, 0, err
	}
	for i := 0; i < 2; i++ {
		if _, _, err = f.tick(nil); err != nil {
			return f, 0, fmt.Errorf("settling tick: %w", err)
		}
	}
	return f, time.Since(start), nil
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// attach opens node n's session: dial, register, and park a reader that
// dispatches the manager's messages into the client callbacks.
func (f *fleet) attach(n *node, seed int64) error {
	conn, err := proto.Dial(f.ln.Addr())
	if err != nil {
		return err
	}
	n.conn = conn
	n.client, err = cluster.NewClient(cluster.ClientConfig{
		Node:    n.id,
		Capable: true,
		Seed:    seed + int64(n.id) + 1,
		Resources: func() cluster.Resources {
			return cluster.Resources{UtilPct: n.util, DataMb: statDataMb, NumAgents: statAgents}
		},
		OnHost: func(int, float64, []int32) bool {
			if f.tracing.Load() {
				f.firstHost.CompareAndSwap(0, int64(time.Since(f.epoch)))
			}
			return true
		},
		OnRedirect: func(amountPct float64, _ []int32) {
			f.redirMu.Lock()
			f.redirSum[n.id] += amountPct
			f.redirN[n.id]++
			f.redirMu.Unlock()
			if f.redirSeen.Add(1) == f.redirWant.Load() {
				select {
				case f.redirDone <- struct{}{}:
				default:
				}
			}
		},
	}, conn)
	if err != nil {
		return err
	}
	if err := n.client.Handshake(); err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	f.readers.Add(1)
	go func() {
		defer f.readers.Done()
		for {
			if _, err := n.client.Step(); err != nil {
				return // session closed by close()
			}
		}
	}()
	return nil
}

// close tears the fixture down and waits for every goroutine it started.
func (f *fleet) close() {
	if f.ln != nil {
		f.ln.Close()
		<-f.served
	}
	if f.mgr != nil {
		f.mgr.Close()
	}
	for _, n := range f.nodes {
		if n.conn != nil {
			n.conn.Close()
		}
	}
	f.readers.Wait()
}

// spinLimit is how long a poller yields in a loop before it starts to
// sleep between looks. A STAT normally shows in the counter within 100 µs,
// which yielding catches at once. But a goroutine that only ever yields
// never lets its P poll the network, so when the other P is taken (by a GC
// worker, say) the frame sits unread in the socket until sysmon's 10 ms
// poll — a stall of the benchmark's making, not the manager's. Sleeping
// parks the poller, and the P reads the socket before it idles.
const spinLimit = 200 * time.Microsecond

// pollSleep is the sleep between looks past spinLimit. The runtime rounds
// it up to about a millisecond when nothing else wakes the P earlier.
const pollSleep = 20 * time.Microsecond

// pollUntil waits for done to hold: yielding at first, sleeping between
// looks past spinLimit, giving up at waitLimit.
func pollUntil(done func() bool) bool {
	start := time.Now()
	for spins := 1; !done(); spins++ {
		if spins%64 != 0 {
			runtime.Gosched()
			continue
		}
		switch waited := time.Since(start); {
		case waited > waitLimit:
			return false
		case waited > spinLimit:
			time.Sleep(pollSleep)
		}
	}
	return true
}

// awaitIngested waits until the manager's ingest counter has caught up
// with the frames the driver wrote.
func (f *fleet) awaitIngested() error {
	if !pollUntil(func() bool { return f.ingested.Value() >= f.sent }) {
		return fmt.Errorf("ingest stalled: %d of %d STAT frames applied", f.ingested.Value(), f.sent)
	}
	return nil
}

// tickTimes are one round's timestamps, relative to the fleet's epoch.
type tickTimes struct {
	// t0: first STAT written. t1: every STAT visible in the ingest counter,
	// RunPlacement called. t2: RunPlacement returned. t3: last redirect
	// delivered to its busy client.
	t0, t1, t2, t3 time.Duration
	// firstHost is stamped inside a client's OnHost callback, only while
	// tracing (0 otherwise, and when the round made no offers).
	firstHost time.Duration
}

// tick runs one round of the protocol: the given nodes write their STAT,
// the manager places, and the round ends when every redirect the placement
// produced has reached its busy client. Everything in here is inside the
// timed window; checks happen afterwards in checkTick.
func (f *fleet) tick(senders []*node) (*cluster.PlacementReport, tickTimes, error) {
	var tm tickTimes
	f.redirMu.Lock()
	for i := range f.redirSum {
		f.redirSum[i], f.redirN[i] = 0, 0
	}
	f.redirMu.Unlock()
	f.redirSeen.Store(0)
	f.redirWant.Store(-1)
	f.firstHost.Store(0)

	tm.t0 = time.Since(f.epoch)
	for _, n := range senders {
		if err := n.client.SendStat(); err != nil {
			return nil, tm, fmt.Errorf("STAT of node %d: %w", n.id, err)
		}
	}
	if len(senders) > 0 {
		f.sent += uint64(len(senders))
		if err := f.awaitIngested(); err != nil {
			return nil, tm, err
		}
	}
	tm.t1 = time.Since(f.epoch)
	rep, err := f.mgr.RunPlacement()
	tm.t2 = time.Since(f.epoch)
	if err != nil {
		return nil, tm, err
	}
	want := int64(len(rep.Accepted))
	f.redirWant.Store(want)
	if f.redirSeen.Load() != want {
		// A poke can be a leftover of the previous round (sent after that
		// round's driver had already seen the count), so re-check on wake.
		timeout := time.NewTimer(waitLimit)
		for f.redirSeen.Load() != want {
			select {
			case <-f.redirDone:
			case <-timeout.C:
				return nil, tm, fmt.Errorf("redirects missing: %d of %d delivered", f.redirSeen.Load(), want)
			}
		}
		timeout.Stop()
	}
	tm.t3 = time.Since(f.epoch)
	tm.firstHost = time.Duration(f.firstHost.Load())
	return rep, tm, nil
}

// generatorCs is the excess each node must shed as the generator knows
// it: util − CMax for the nodes it last told to report a busy value.
func (f *fleet) generatorCs() []float64 {
	cs := make([]float64, len(f.nodes))
	for i, n := range f.nodes {
		if isBusy(n.util) {
			cs[i] = n.util - thresholds.CMax
		}
	}
	return cs
}

// reportedCs is the excess per node as the manager classified it.
func reportedCs(rep *cluster.PlacementReport, n int) []float64 {
	cs := make([]float64, n)
	if rep.Result != nil && rep.Result.Classification != nil {
		c := rep.Result.Classification
		for bi, b := range c.Busy {
			cs[b] = c.Cs[bi]
		}
	}
	return cs
}

// checkTick is the per-round correctness gate, run after t3. wantCs[i] is
// the excess node i has to shed (0 for a node that is not busy):
//
//   - Eq. 3b seen from the wire: the redirects each busy client received
//     sum to its Cs_i, and no other client received one;
//   - every offer was accepted, nothing timed out or went unplaced;
//   - verify.CheckResult passes on the manager's own state and result.
func (f *fleet) checkTick(rep *cluster.PlacementReport, wantCs []float64) error {
	if rep.Result == nil || rep.Result.Status != core.StatusOptimal {
		return errors.New("placement was not optimal")
	}
	if n := rep.Abandoned(); n > 0 {
		return fmt.Errorf("%d offers abandoned (declined %d, timed out %d, unplaced %d)",
			n, len(rep.Declined), len(rep.TimedOut), len(rep.Unplaced))
	}
	f.redirMu.Lock()
	defer f.redirMu.Unlock()
	for i, want := range wantCs {
		if want == 0 && f.redirN[i] != 0 {
			return fmt.Errorf("node %d is not busy but received %d redirects", i, f.redirN[i])
		}
		if math.Abs(f.redirSum[i]-want) > 1e-6 {
			return fmt.Errorf("node %d was redirected %.9g of its excess %.9g", i, f.redirSum[i], want)
		}
	}
	state := f.mgr.NMDB().BuildState(thresholds)
	if err := verify.CheckResult(state, rep.Result, core.SolverTransport); err != nil {
		return err
	}
	return nil
}

// checkCold compares the manager's objective with a stateless cold solve
// of the same NMDB state: no cache, no carried basis, no delta.
func (f *fleet) checkCold(rep *cluster.PlacementReport) error {
	cold, err := core.Solve(f.mgr.NMDB().BuildState(thresholds), solveParams())
	if err != nil {
		return err
	}
	return sameObjective("cold solve", cold.Objective, rep.Result.Objective)
}

func sameObjective(what string, got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("%s objective %.15g, manager %.15g", what, got, want)
	}
	return nil
}
