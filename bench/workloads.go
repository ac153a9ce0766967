package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// edgeEdit is one link-utilization change the generator applies.
type edgeEdit struct {
	id   graph.EdgeID
	util float64
}

// step is what the generator feeds the system before one round: the nodes
// that write a STAT (their util already updated) and the link edits
// (already applied to the manager's topology).
type step struct {
	senders []*node
	edits   []edgeEdit
}

// workload is one traffic mix. step is nil for ingest_flood, whose load
// comes from free-running sender goroutines instead of per-round steps.
type workload struct {
	name string
	why  string
	step func(f *fleet) step
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{
		name: "steady_drift1",
		why:  "one in-band STAT per round: repair rung and warm route cache, so snapshot, classify, table assembly, validation and dispatch do the work and the LP almost none",
		step: stepSteadyDrift1,
	},
	{
		name: "role_churn",
		why:  "two busy and two candidate nodes swap bands per round: the carried basis is rejected every round, so the cold LP and solve prep do the work while dispatch stays as in steady_drift1",
		step: stepRoleChurn,
	},
	{
		name: "link_drift",
		why:  "four link utilizations change per round with roles fixed: the write side of the route cache (revalidation, targeted eviction) and the warm solve do the work",
		step: stepLinkDrift,
	},
	{
		name: "ingest_flood",
		why:  "senders write STATs back to back, one pass over the fleet in flight, while placement ticks every 100 ms: frame decode, serveConn batching and NMDB writes do the work beside snapshot reads",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepSteadyDrift1: one random node re-reports a value inside its band.
func stepSteadyDrift1(f *fleet) step {
	n := f.nodes[f.rng.Intn(len(f.nodes))]
	n.util = inBand(isBusy(n.util), f.rng)
	return step{senders: []*node{n}}
}

// stepRoleChurn: two random busy nodes drop into the candidate band and
// two random candidates rise into the busy band, so the busy count — and
// with it the size of the LP — stays what the fixture started with while
// the sets change every round.
func stepRoleChurn(f *fleet) step {
	var busy, cand []*node
	for _, n := range f.nodes {
		if isBusy(n.util) {
			busy = append(busy, n)
		} else {
			cand = append(cand, n)
		}
	}
	var st step
	for _, group := range [][]*node{busy, cand} {
		for _, k := range f.rng.Perm(len(group))[:2] {
			n := group[k]
			n.util = inBand(!isBusy(n.util), f.rng)
			st.senders = append(st.senders, n)
		}
	}
	return st
}

// stepLinkDrift: four random links get a new utilization and one node
// re-sends its unchanged value (so the round still starts from a STAT).
// A new value always differs from the old by more than twice the route
// cache's epsilon: the cache then never absorbs a change, cached routes
// stay exact, and the stateless cold solve remains a valid oracle.
func stepLinkDrift(f *fleet) step {
	var st step
	for i := 0; i < 4; i++ {
		id := graph.EdgeID(f.rng.Intn(f.topo.NumEdges()))
		old := f.topo.Edge(id).Utilization
		util := old
		for math.Abs(util-old) <= 0.02*math.Max(util, old) {
			util = utilLo + (utilHi-utilLo)*f.rng.Float64()
		}
		f.topo.SetUtilization(id, util)
		st.edits = append(st.edits, edgeEdit{id: id, util: util})
	}
	st.senders = []*node{f.nodes[f.rng.Intn(len(f.nodes))]}
	return st
}

// floodTick is the placement cadence under ingest_flood.
const floodTick = 100 * time.Millisecond

// floodBurst is how many STATs a sender writes on one session before it
// moves to the next.
const floodBurst = 16

// floodWindow bounds how far the senders may run ahead of the manager's
// ingest counter: one pass over the fleet. Loopback socket buffers hold
// megabytes, so TCP backpressure alone would let thousands of frames queue
// per session and leave the delivered rate to how the Go scheduler splits
// the CPUs between senders and readers; the window makes the loop closed
// in the way a reporting fleet is, with a bounded number of reports in
// flight.
const floodWindow = fleetNodes * floodBurst

// startFlood launches min(nproc, 2) sender goroutines that each own an
// interleaved share of the sessions and write in-band STATs back to back,
// floodBurst per session, waiting while more than floodWindow frames are
// in flight, until stop is set. The returned function waits for them and
// reports how many frames they wrote.
func (f *fleet) startFlood(stop *atomic.Bool) (wait func() (uint64, error)) {
	senders := runtime.NumCPU()
	if senders > 2 {
		senders = 2
	}
	var wg sync.WaitGroup
	var sent atomic.Uint64
	base := f.sent
	errs := make([]error, senders)
	for s := 0; s < senders; s++ {
		rng := rand.New(rand.NewSource(f.rng.Int63()))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				for i := s; i < len(f.nodes); i += senders {
					pollUntil(func() bool {
						return base+sent.Load()-f.ingested.Value() <= floodWindow || stop.Load()
					})
					if stop.Load() {
						return
					}
					n := f.nodes[i]
					for k := 0; k < floodBurst; k++ {
						n.util = inBand(isBusy(n.util), rng)
						if errs[s] = n.client.SendStat(); errs[s] != nil {
							return
						}
					}
					sent.Add(floodBurst)
				}
			}
		}(s)
	}
	return func() (uint64, error) {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return sent.Load(), err
			}
		}
		return sent.Load(), nil
	}
}

// checkFloodDrained is ingest_flood's closing gate: every frame written
// was applied, and each node's NMDB record holds the last value it sent.
func (f *fleet) checkFloodDrained() error {
	if err := f.awaitIngested(); err != nil {
		return err
	}
	for _, n := range f.nodes {
		rec, ok := f.mgr.NMDB().Client(n.id)
		if !ok || rec.UtilPct != n.util {
			return fmt.Errorf("node %d: NMDB holds %v, last STAT sent %v", n.id, rec.UtilPct, n.util)
		}
	}
	return nil
}

// windows is how many equal stretches a phase is cut into. The timing and
// rate metrics are computed per window and reported at the quiet quartile
// of the windows (see quiet).
const windows = 20

// quiet returns the first quartile of per-window values towards the better
// side: the value the calmest quarter of the run reaches. A neighbour on
// the shared host only ever slows the system, for seconds at a time, so the
// quiet windows estimate what the code does undisturbed, whereas a change
// to the code moves every window and the quartile with them.
func quiet(perWindow []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(perWindow, 0.25)
	}
	return quantile(perWindow, 0.75)
}

// windowMark is the running totals at a window boundary.
type windowMark struct {
	at  time.Duration
	cpu time.Duration
	// active is the time the system had frames to work on: all of it under
	// ingest_flood, the timed part of the rounds (t0 to t3, not the checks
	// between them) in the round workloads.
	active time.Duration
	frames uint64
	rounds int
}

// phase is what one stretch of measurement collected.
type phase struct {
	rounds int
	// frames and batches are the manager's ingest counters' movement.
	frames, batches uint64
	// marks are the window boundaries, the phase's start first.
	marks []windowMark
	// Runtime counters' movement over the phase, whole process.
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32

	// Per-round samples. reactMs is t3−t0; the rest split it.
	reactMs, ingestUs, tickMs, decideMs, dispatchMs, tailUs []float64

	offers, retried, pivots int
	modes                   map[string]int
	cache                   core.CacheStats
	shardsReused, shardsAll uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// coldCheckEvery is how often a round is also checked against a stateless
// cold solve.
const coldCheckEvery = 50

// measure drives workload w on f for dur (or maxRounds rounds, when that
// is set and comes first). With a replay it runs traced: client callbacks
// stamp times, and after each round's checks the layers are replayed on
// the shadow state.
func measure(f *fleet, w workload, dur time.Duration, maxRounds int, rp *replay) (*phase, error) {
	p := &phase{modes: map[string]int{}}
	f.tracing.Store(rp != nil)
	defer f.tracing.Store(false)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cache0 := f.mgr.RouteCacheStats()
	nmdb0 := f.mgr.NMDB().Stats()
	frames0, batches0 := f.ingested.Value(), f.batches.Value()
	cpu0 := processCPU()
	start := time.Now()

	flood := w.step == nil
	var stopFlood atomic.Bool
	var waitFlood func() (uint64, error)
	if flood {
		waitFlood = f.startFlood(&stopFlood)
	}
	// endFlood stops the senders and accounts for what they wrote; the
	// error path must do so too, or close() would race them.
	endFlood := func() error {
		if waitFlood == nil {
			return nil
		}
		stopFlood.Store(true)
		sent, err := waitFlood()
		waitFlood = nil
		f.sent += sent
		return err
	}
	fail := func(round int, err error) (*phase, error) {
		_ = endFlood()
		return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
	}

	var inRounds time.Duration
	mark := func() {
		m := windowMark{
			at: time.Since(start), cpu: processCPU() - cpu0, active: inRounds,
			frames: f.ingested.Value() - frames0, rounds: p.rounds,
		}
		if flood {
			m.active = m.at
		}
		p.marks = append(p.marks, m)
	}
	mark()
	round := 0
	capped := func() bool { return maxRounds > 0 && round >= maxRounds }
	for win := 1; win <= windows && !capped(); win++ {
		windowEnd := start.Add(dur * time.Duration(win) / windows)
		for ; time.Now().Before(windowEnd) && !capped(); round++ {
			var st step
			if flood {
				time.Sleep(time.Until(start.Add(time.Duration(round+1) * floodTick)))
			} else {
				st = w.step(f)
			}
			rep, tm, err := f.tick(st.senders)
			if err != nil {
				return fail(round, err)
			}
			wantCs := reportedCs(rep, len(f.nodes))
			if !flood {
				wantCs = f.generatorCs()
			}
			if err := f.checkTick(rep, wantCs); err != nil {
				return fail(round, err)
			}
			if !flood && round%coldCheckEvery == 0 {
				if err := f.checkCold(rep); err != nil {
					return fail(round, err)
				}
			}

			p.rounds++
			inRounds += tm.t3 - tm.t0
			p.reactMs = append(p.reactMs, ms(tm.t3-tm.t0))
			p.ingestUs = append(p.ingestUs, us(tm.t1-tm.t0))
			p.tickMs = append(p.tickMs, ms(tm.t2-tm.t1))
			p.tailUs = append(p.tailUs, us(tm.t3-tm.t2))
			p.offers += len(rep.Accepted) + rep.Abandoned()
			p.retried += len(rep.Retried)
			p.pivots += rep.Result.Pivots
			p.modes[rep.Result.SolveMode()]++
			if rp != nil {
				if tm.firstHost > 0 {
					p.decideMs = append(p.decideMs, ms(tm.firstHost-tm.t1))
					p.dispatchMs = append(p.dispatchMs, ms(tm.t2-tm.firstHost))
				}
				rp.liveSpans(round, tm)
				if err := rp.round(round, f, st, rep); err != nil {
					return fail(round, err)
				}
			}
		}
		// Frames are read at the boundary, before any drain: what is still
		// queued when a window closes was not delivered inside it.
		mark()
	}
	p.frames = p.marks[len(p.marks)-1].frames
	if err := endFlood(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if flood {
		if err := f.checkFloodDrained(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	p.batches = f.batches.Value() - batches0
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	cache1 := f.mgr.RouteCacheStats()
	p.cache = core.CacheStats{
		Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses,
		Evicted: cache1.Evicted - cache0.Evicted,
	}
	nmdb1 := f.mgr.NMDB().Stats()
	p.shardsReused = nmdb1.SnapshotShardsReused - nmdb0.SnapshotShardsReused
	p.shardsAll = p.shardsReused + nmdb1.SnapshotShardsRebuilt - nmdb0.SnapshotShardsRebuilt
	if p.rounds == 0 || p.frames == 0 {
		return nil, fmt.Errorf("%s: nothing measured (%d rounds, %d frames)", w.name, p.rounds, p.frames)
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// attempted counts the operations a phase tried: rounds, STAT frames and
// offers.
func (p *phase) attempted() int { return p.rounds + int(p.frames) + p.offers }

// perWindow applies fn to the two marks around every window that saw a
// round.
func (p *phase) perWindow(fn func(from, to windowMark) float64) []float64 {
	var out []float64
	for i := 1; i < len(p.marks); i++ {
		if from, to := p.marks[i-1], p.marks[i]; to.rounds > from.rounds {
			out = append(out, fn(from, to))
		}
	}
	return out
}

// setEndToEnd fills in the metrics an operator would see.
func (p *phase) setEndToEnd(r *result) {
	react := func(q float64) []float64 {
		return p.perWindow(func(from, to windowMark) float64 {
			return quantile(p.reactMs[from.rounds:to.rounds], q)
		})
	}
	r.set("react_ms_p50", quiet(react(0.5), true), len(p.reactMs))
	r.set("react_ms_p99", quiet(react(0.99), true), len(p.reactMs))
	r.set("alloc_kb_per_frame", float64(p.allocBytes)/1024/float64(p.frames), 0)
	rate := p.perWindow(func(from, to windowMark) float64 {
		return float64(to.frames-from.frames) / (to.active - from.active).Seconds()
	})
	r.set("ingest_frames_per_s", quiet(rate, false), len(rate))
	cpu := p.perWindow(func(from, to windowMark) float64 {
		return us(to.cpu-from.cpu) / float64(to.frames-from.frames)
	})
	r.set("cpu_us_per_frame", quiet(cpu, true), len(cpu))
	r.set("rss_peak_mb", peakRSSMB(), 0)
}

// setLive fills in the per-layer metrics that come from the live system
// (manager counters, reports and client callbacks) during a traced phase.
func (p *phase) setLive(r *result) {
	rounds := float64(p.rounds)
	r.set("manager.ingest_us", median(p.ingestUs), len(p.ingestUs))
	r.set("manager.tick_ms_p50", median(p.tickMs), len(p.tickMs))
	r.set("manager.decide_ms", median(p.decideMs), len(p.decideMs))
	r.set("manager.dispatch_ms", median(p.dispatchMs), len(p.dispatchMs))
	r.set("manager.redirect_tail_us", median(p.tailUs), len(p.tailUs))
	r.set("manager.offers_per_round", float64(p.offers)/rounds, 0)
	r.set("manager.retries_per_round", float64(p.retried)/rounds, 0)
	r.set("manager.stat_batch_mean", ratio(float64(p.frames), float64(p.batches)), 0)
	r.set("nmdb.shards_reused_ratio", ratio(float64(p.shardsReused), float64(p.shardsAll)), 0)
	r.set("core.routecache_hit_ratio", ratio(float64(p.cache.Hits), float64(p.cache.Hits+p.cache.Misses)), 0)
	r.set("core.route_rows_evicted_per_round", float64(p.cache.Evicted)/rounds, 0)
	for _, mode := range []string{"repair", "warm", "cold"} {
		r.set("core.solve_mode_"+mode+"_ratio", float64(p.modes[mode])/rounds, 0)
	}
	r.set("lp.pivots_per_solve", float64(p.pivots)/rounds, 0)
}

// setRuntime fills in the Go runtime's counters over an untraced phase.
func (p *phase) setRuntime(r *result) {
	r.set("rt.allocs_per_round", float64(p.mallocs)/float64(p.rounds), p.rounds)
	r.set("rt.alloc_kb_per_round", float64(p.allocBytes)/1024/float64(p.rounds), p.rounds)
	r.set("rt.gc_cycles", float64(p.gcCycles), 0)
	r.set("rt.gc_pause_ms_total", float64(p.pauseNs)/1e6, 0)
}

// options are the settings of one invocation.
type options struct {
	seed    int64
	seconds float64
	// rounds caps the rounds of a run (0 = run for seconds).
	rounds int
	// setups is how many times the fixture is brought up; setup_s is the
	// median.
	setups int
	trace  bool
	outDir string
}

// runWorkload brings the fixture up o.setups times, measures w on the
// last one, and returns every metric of the requested kind.
func runWorkload(w workload, o options) (*result, error) {
	// Only the untraced run reports setup_s, so only it repeats the set-up.
	n := o.setups
	if o.trace {
		n = 1
	}
	var f *fleet
	var setups []float64
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
			// Peak RSS is a high-water mark: hand a torn-down fixture's memory
			// back before the next comes up, so that the mark is the system's
			// and not the sum of the set-ups.
			debug.FreeOSMemory()
		}
		var took time.Duration
		var err error
		f, took, err = newFleet(o.seed, o.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer f.close()

	res := &result{workload: w.name, values: map[string]measured{}}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p, err := measure(f, w, dur, o.rounds, nil)
		if err != nil {
			return nil, err
		}
		p.setEndToEnd(res)
		res.set("setup_s", median(setups), len(setups))
		res.attempted = p.attempted()
		return res, nil
	}

	// Traced run: an untraced half gives the runtime counters and the base
	// for trace.overhead_ratio, a traced half everything else.
	base, err := measure(f, w, dur/2, o.rounds/2, nil)
	if err != nil {
		return nil, err
	}
	rp, err := newReplay(f, w)
	if err != nil {
		return nil, fmt.Errorf("%s: replay set-up: %w", w.name, err)
	}
	traced, err := measure(f, w, dur/2, o.rounds-o.rounds/2, rp)
	if err != nil {
		return nil, err
	}
	base.setRuntime(res)
	traced.setLive(res)
	rp.setLayers(res)
	res.set("manager.heap_kb_per_conn", f.heapPerConnKB, 0)
	res.set("trace.overhead_ratio", ratio(median(traced.reactMs), median(base.reactMs)), 0)
	res.attempted = base.attempted() + traced.attempted()
	return res, rp.tr.write(o.outDir, w.name)
}
