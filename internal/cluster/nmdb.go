// Package cluster implements DUST's control plane: the DUST-Manager (the
// decision node with its Network Monitoring Data Base and optimization
// engine) and the DUST-Client (the per-device agent that registers with
// Offload-capable, reports STAT, executes Offload-Requests, and emits
// Keepalives when acting as an offload destination) — the node roles and
// packet flows of Figure 3.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// DefaultNMDBShards is the client-registry stripe count used by NewNMDB.
// Eight stripes keep lock hold times short without measurable overhead on
// single-goroutine workloads (see BenchmarkNMDBIngestParallel).
const DefaultNMDBShards = 8

// ClientRecord is the NMDB's view of one registered client.
type ClientRecord struct {
	// Node is the client's node index in the topology.
	Node int
	// Capable is the Offload-capable flag from registration.
	Capable bool
	// CMax and COMax are the client's self-declared thresholds; zero means
	// "use the manager defaults".
	CMax, COMax float64
	// UtilPct, DataMb, and NumAgents come from the latest STAT.
	UtilPct   float64
	DataMb    float64
	NumAgents int
	// LastStat and LastKeepalive timestamp the latest reports.
	LastStat      time.Time
	LastKeepalive time.Time
	// LastReport timestamps the latest STAT frame of any kind — full
	// report or max-silence heartbeat. With sampled reporting (DESIGN.md
	// §16) it can run ahead of LastStat: the client is alive and its
	// values are unchanged within its deadbands, there is just no fresh
	// sample. The staleness horizon reads this clock; the keepalive
	// timeout stays on LastKeepalive.
	LastReport time.Time
	// StatSuppressed counts STAT intervals this client deliberately
	// suppressed (deadband/sampling, reported by the client in each
	// frame); StatGapLoss counts frames the network lost, inferred from
	// per-sender sequence gaps. Splitting the two makes sustained frame
	// loss distinguishable from sustained suppression per client, not
	// just in the manager-wide aggregates. Reordering can hide a gap
	// (late frames are ignored), so StatGapLoss is an upper bound on
	// true loss under reordering, exact under in-order delivery.
	StatSuppressed uint64
	StatGapLoss    uint64
	// Role is the manager-assigned role after the last classification.
	Role core.Role
	// HostingFor lists busy nodes whose workload this client hosts,
	// ascending. It is populated on the copies Client returns; the live
	// record tracks the set in hosting.
	HostingFor []int

	// hosting is the live membership set behind HostingFor.
	hosting map[int]struct{}
	// registered distinguishes a live record from an empty slot in the
	// shard's dense record array.
	registered bool
}

// hostList returns the hosting set as a sorted slice (nil when empty).
func (rec *ClientRecord) hostList() []int {
	if len(rec.hosting) == 0 {
		return nil
	}
	out := make([]int, 0, len(rec.hosting))
	for b := range rec.hosting {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

func (rec *ClientRecord) hostAdd(busy int) {
	if rec.hosting == nil {
		rec.hosting = make(map[int]struct{})
	}
	rec.hosting[busy] = struct{}{}
}

// nmdbShard is one stripe of the client registry. Node ids are dense
// topology indices, so records live in a fixed-size value slice — local
// slot node>>shift — rather than a map: a STAT apply is an array index
// plus field stores, with no hashing or pointer chase. recs never grows
// or shrinks after construction, so &recs[i] stays valid for the NMDB's
// lifetime (LoadSnapshot swaps the whole slice under the lock).
//
// seq counts mutations that can change BuildState output (registration
// and STAT fields); keepalives, roles, and hosting edits leave it alone
// so they never force a snapshot rebuild. The pad keeps hot shards on
// separate cache lines.
type nmdbShard struct {
	mu   sync.Mutex
	recs []ClientRecord
	seq  uint64
	_    [24]byte
}

// NMDB is the manager's network-monitoring database: topology, per-client
// records, and the active offload ledger (Section III-B: "network
// typologies, link utilization, nodes' monitoring and offloading
// capabilities"). The client registry is striped across shards keyed by
// node id so concurrent STAT/keepalive ingest from serveConn goroutines
// does not serialize on one mutex; the offload ledger keeps its own lock.
// Lock ordering: ledger before shard (never the reverse).
type NMDB struct {
	topo   *graph.Graph
	shards []*nmdbShard
	// numNodes caches topo.NumNodes(); mask and shift implement the
	// power-of-two shard addressing: shard = node&mask, slot = node>>shift.
	numNodes int
	mask     int
	shift    uint

	// lmu guards the active offload ledger.
	lmu sync.Mutex
	// active maps busy node -> its current assignments.
	active map[int][]core.Assignment

	// muts counts registry/ledger mutations; replication uses it to skip
	// shipping a snapshot when nothing changed since the last one.
	muts atomic.Uint64

	// snap is the epoch-snapshot state behind SnapshotState.
	snap struct {
		mu       sync.Mutex
		seqs     []uint64
		bufs     [2]*core.State
		cur      int
		valid    bool
		defaults core.Thresholds
		reused   uint64
		rebuilt  uint64
	}
}

// NMDBStats reports registry shape and snapshot reuse counters.
type NMDBStats struct {
	// Shards is the registry stripe count.
	Shards int
	// SnapshotShardsReused counts shards whose rows were copied from the
	// previous tick's state; SnapshotShardsRebuilt counts shards re-read
	// from client records.
	SnapshotShardsReused  uint64
	SnapshotShardsRebuilt uint64
}

// NewNMDB creates an NMDB over the given topology with the default shard
// count.
func NewNMDB(topo *graph.Graph) *NMDB {
	return NewNMDBSharded(topo, 0)
}

// NewNMDBSharded creates an NMDB with an explicit registry stripe count;
// nShards < 1 selects DefaultNMDBShards. The count is rounded up to the
// next power of two so shard addressing is a mask and a shift instead of
// a division on the ingest hot path.
func NewNMDBSharded(topo *graph.Graph, nShards int) *NMDB {
	if nShards < 1 {
		nShards = DefaultNMDBShards
	}
	shift := uint(0)
	for 1<<shift < nShards {
		shift++
	}
	nShards = 1 << shift
	n := topo.NumNodes()
	db := &NMDB{
		topo:     topo,
		shards:   make([]*nmdbShard, nShards),
		numNodes: n,
		mask:     nShards - 1,
		shift:    shift,
		active:   make(map[int][]core.Assignment),
	}
	for i := range db.shards {
		// Shard i owns nodes i, i+nShards, i+2·nShards, …
		owned := 0
		if i < n {
			owned = (n - i + nShards - 1) / nShards
		}
		db.shards[i] = &nmdbShard{recs: make([]ClientRecord, owned)}
	}
	db.snap.seqs = make([]uint64, nShards)
	return db
}

// Topology returns the stored topology (shared, not copied: link
// utilization updates flow through it).
func (db *NMDB) Topology() *graph.Graph { return db.topo }

// Stats reports shard count and snapshot reuse counters.
func (db *NMDB) Stats() NMDBStats {
	db.snap.mu.Lock()
	defer db.snap.mu.Unlock()
	return NMDBStats{
		Shards:                len(db.shards),
		SnapshotShardsReused:  db.snap.reused,
		SnapshotShardsRebuilt: db.snap.rebuilt,
	}
}

// StateVersion returns a counter that advances on every mutation of the
// durable state (registry or ledger). Equal values mean SaveSnapshot
// would produce the same bytes, which lets the replication loop send a
// cheap heartbeat instead of a full snapshot when nothing changed.
func (db *NMDB) StateVersion() uint64 { return db.muts.Load() }

// slot maps a node id to its registry stripe and local record index;
// sh is nil when node lies outside the topology.
func (db *NMDB) slot(node int) (sh *nmdbShard, li int) {
	if node < 0 || node >= db.numNodes {
		return nil, 0
	}
	return db.shards[node&db.mask], node >> db.shift
}

// rec returns the live record for a local slot, or nil when the slot is
// empty. Callers must hold sh.mu.
func (sh *nmdbShard) rec(li int) *ClientRecord {
	if r := &sh.recs[li]; r.registered {
		return r
	}
	return nil
}

// Register records an Offload-capable handshake. Unknown node indices are
// rejected.
func (db *NMDB) Register(node int, capable bool, cmax, comax float64) error {
	sh, li := db.slot(node)
	if sh == nil {
		return fmt.Errorf("cluster: node %d outside topology (%d nodes)", node, db.numNodes)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := &sh.recs[li]
	if !rec.registered {
		*rec = ClientRecord{Node: node, registered: true}
	}
	rec.Capable = capable
	rec.CMax = cmax
	rec.COMax = comax
	sh.seq++
	db.muts.Add(1)
	return nil
}

// RecordStat stores a STAT report.
func (db *NMDB) RecordStat(node int, utilPct, dataMb float64, numAgents int, at time.Time) error {
	sh, li := db.slot(node)
	if sh == nil {
		return fmt.Errorf("cluster: STAT from unregistered node %d", node)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return fmt.Errorf("cluster: STAT from unregistered node %d", node)
	}
	rec.UtilPct = utilPct
	rec.DataMb = dataMb
	rec.NumAgents = numAgents
	rec.LastStat = at
	rec.LastReport = at
	sh.seq++
	db.muts.Add(1)
	return nil
}

// RecordHeartbeat stores a max-silence heartbeat STAT: the client
// re-affirmed its last-sent values without fresh data, so only the
// report age moves. Like RecordKeepalive it does not bump the shard seq —
// a heartbeat never changes BuildState output, which is what lets
// sampled reporting cut manager CPU (unchanged shards stay reusable
// across tick snapshots).
func (db *NMDB) RecordHeartbeat(node int, at time.Time) error {
	sh, li := db.slot(node)
	if sh == nil {
		return fmt.Errorf("cluster: heartbeat from unregistered node %d", node)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return fmt.Errorf("cluster: heartbeat from unregistered node %d", node)
	}
	rec.LastReport = at
	db.muts.Add(1)
	return nil
}

// Stat is one STAT report for batched ingest.
type Stat struct {
	Node      int
	UtilPct   float64
	DataMb    float64
	NumAgents int
	At        time.Time
}

// statScratch pools the index scratch RecordStats uses to group a batch
// by shard, keeping the steady-state batch path allocation-free.
var statScratch = sync.Pool{New: func() any {
	s := make([]int32, 0, 256)
	return &s
}}

// RecordStats applies a batch of STAT reports, taking each touched
// shard's lock once instead of once per report. A single-node batch (the
// shape serveConn produces) collapses to one write of the newest report.
// Mixed batches are grouped by shard with a two-pass counting sort over
// pooled scratch, so the hot path allocates nothing and each shard's
// reports apply as one contiguous run. Reports from unregistered nodes
// are skipped and reported as a joined error; the rest still apply.
func (db *NMDB) RecordStats(stats []Stat) error {
	if len(stats) == 0 {
		return nil
	}
	// serveConn coalesces runs of buffered reports from one connection, so
	// the common batch holds a single node. Each STAT fully overwrites the
	// previous one's fields, so only the newest report needs to touch the
	// record at all.
	sameNode := true
	for k := 1; k < len(stats); k++ {
		if stats[k].Node != stats[0].Node {
			sameNode = false
			break
		}
	}
	if sameNode {
		st := &stats[len(stats)-1]
		return db.RecordStat(st.Node, st.UtilPct, st.DataMb, st.NumAgents, st.At)
	}
	nsh := len(db.shards)
	sp := statScratch.Get().(*[]int32)
	need := len(stats) + 2*(nsh+1)
	if cap(*sp) < need {
		*sp = make([]int32, need)
	}
	scratch := (*sp)[:need]
	offs := scratch[:nsh+1] // run start of each shard after prefix sum
	cursor := scratch[nsh+1 : 2*(nsh+1)]
	order := scratch[2*(nsh+1):] // stat indices grouped by shard
	for i := range offs {
		offs[i] = 0
	}
	// Negative ids still land in a shard under the mask; the slot bounds
	// check at apply time rejects them alongside any node >= numNodes.
	mask, shift := db.mask, db.shift
	for k := range stats {
		offs[(stats[k].Node&mask)+1]++
	}
	for s := 0; s < nsh; s++ {
		offs[s+1] += offs[s]
		cursor[s] = offs[s]
	}
	for k := range stats {
		s := stats[k].Node & mask
		order[cursor[s]] = int32(k)
		cursor[s]++
	}

	var errs []error
	anyApplied := false
	for si, sh := range db.shards {
		lo, hi := offs[si], offs[si+1]
		if lo == hi {
			continue
		}
		sh.mu.Lock()
		recs := sh.recs
		applied := false
		for _, k := range order[lo:hi] {
			st := &stats[k]
			li := st.Node >> shift
			if li < 0 || li >= len(recs) || !recs[li].registered {
				errs = append(errs, fmt.Errorf("cluster: STAT from unregistered node %d", st.Node))
				continue
			}
			rec := &recs[li]
			rec.UtilPct = st.UtilPct
			rec.DataMb = st.DataMb
			rec.NumAgents = st.NumAgents
			rec.LastStat = st.At
			rec.LastReport = st.At
			applied = true
		}
		if applied {
			sh.seq++
			anyApplied = true
		}
		sh.mu.Unlock()
	}
	if anyApplied {
		db.muts.Add(1)
	}
	statScratch.Put(sp)
	return errors.Join(errs...)
}

// RecordKeepalive stores a destination's liveness beacon.
func (db *NMDB) RecordKeepalive(node int, at time.Time) error {
	sh, li := db.slot(node)
	if sh == nil {
		return fmt.Errorf("cluster: keepalive from unregistered node %d", node)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return fmt.Errorf("cluster: keepalive from unregistered node %d", node)
	}
	rec.LastKeepalive = at
	db.muts.Add(1)
	return nil
}

// Client returns a copy of the record for node.
func (db *NMDB) Client(node int) (ClientRecord, bool) {
	sh, li := db.slot(node)
	if sh == nil {
		return ClientRecord{}, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return ClientRecord{}, false
	}
	cp := *rec
	cp.hosting = nil
	cp.HostingFor = rec.hostList()
	return cp, true
}

// Nodes lists registered node indices, ascending.
func (db *NMDB) Nodes() []int {
	var out []int
	for si, sh := range db.shards {
		sh.mu.Lock()
		for li := range sh.recs {
			if sh.recs[li].registered {
				out = append(out, li<<db.shift|si)
			}
		}
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// BuildState snapshots the NMDB into a freshly allocated optimizer input.
// Nodes that never registered or declined offloading are marked
// non-offloadable; their utilization defaults to a neutral mid-range value
// so they are never classified busy or candidate.
//
// BuildState is safe to call from any goroutine at any time (the
// substitute-destination path uses it mid-tick); the placement loop uses
// SnapshotState, which reuses buffers across ticks.
func (db *NMDB) BuildState(defaults core.Thresholds) *core.State {
	s := core.NewState(db.topo)
	db.fillState(s, defaults, nil, nil, nil)
	return s
}

// SnapshotState is BuildState with cross-tick reuse: per-shard sequence
// counters let rows owned by unchanged shards be copied from the previous
// call's state instead of re-read under the shard lock, and the backing
// core.State buffers are recycled double-buffered.
//
// Aliasing contract: the returned state remains valid until the
// second-next SnapshotState call on this NMDB (the next call writes the
// other buffer). Callers that hold a state longer — or mutate it — must
// use BuildState. The manager serializes placement ticks, which makes
// this the natural fit for RunPlacement.
func (db *NMDB) SnapshotState(defaults core.Thresholds) *core.State {
	s, _ := db.SnapshotStateDelta(defaults)
	return s
}

// SnapshotStateDelta is SnapshotState plus a change description: the
// returned PlanDelta lists the nodes whose planning inputs differ from
// the previous snapshot's, computed almost for free from the shard seq
// counters — rows owned by unchanged shards are copied without
// comparison, and only rebuilt shards' rows are diffed against the
// previous buffer. The delta is invalid (Valid=false) on the first
// snapshot and whenever the previous buffer was unusable (defaults
// change, explicit invalidation); TopologyChanged is the caller's to
// fill in — the NMDB does not track graph versions.
func (db *NMDB) SnapshotStateDelta(defaults core.Thresholds) (*core.State, core.PlanDelta) {
	db.snap.mu.Lock()
	defer db.snap.mu.Unlock()
	prev := db.snap.bufs[db.snap.cur]
	next := 1 - db.snap.cur
	s := db.snap.bufs[next]
	if s == nil {
		s = core.NewState(db.topo)
		db.snap.bufs[next] = s
	}
	// A defaults change moves the neutral value baked into every
	// non-capable row, so the previous state is unusable as a copy source.
	if db.snap.defaults != defaults {
		db.snap.valid = false
	}
	if !db.snap.valid {
		prev = nil
	}
	var delta core.PlanDelta
	var changed *[]int
	if prev != nil {
		delta.Valid = true
		changed = &delta.Changed
	}
	db.fillState(s, defaults, prev, db.snap.seqs, changed)
	db.snap.cur = next
	db.snap.valid = true
	db.snap.defaults = defaults
	// Shards interleave node ids, so per-shard appends arrive unsorted.
	sort.Ints(delta.Changed)
	return s, delta
}

// fillState populates s from the client registry. When prev is non-nil,
// rows owned by a shard whose seq still matches seqs are copied from prev
// instead of re-derived; seqs is updated to the observed counters. When
// changed is non-nil (requires prev), rebuilt rows that differ from prev
// are appended to it.
func (db *NMDB) fillState(s *core.State, defaults core.Thresholds, prev *core.State, seqs []uint64, changed *[]int) {
	neutral := (defaults.CMax + defaults.COMax) / 2
	numNodes := db.topo.NumNodes()
	nShards := len(db.shards)
	for si, sh := range db.shards {
		sh.mu.Lock()
		if prev != nil && sh.seq == seqs[si] {
			sh.mu.Unlock()
			for i := si; i < numNodes; i += nShards {
				s.Util[i] = prev.Util[i]
				s.DataMb[i] = prev.DataMb[i]
				s.Offloadable[i] = prev.Offloadable[i]
			}
			db.snap.reused++
			continue
		}
		for li := range sh.recs {
			i := li<<db.shift | si
			rec := &sh.recs[li]
			util, data, off := neutral, 0.0, false
			if rec.registered && rec.Capable {
				util, data, off = rec.UtilPct, rec.DataMb, true
			}
			// Diff against prev (the last snapshot), not s: the buffer
			// being filled still holds values from two snapshots ago, and
			// an A→B→A flip across those would read as "unchanged".
			// changed != nil implies prev != nil.
			if changed != nil && (prev.Util[i] != util || prev.DataMb[i] != data || prev.Offloadable[i] != off) {
				*changed = append(*changed, i)
			}
			s.Util[i] = util
			s.DataMb[i] = data
			s.Offloadable[i] = off
		}
		if seqs != nil {
			seqs[si] = sh.seq
			db.snap.rebuilt++
		}
		sh.mu.Unlock()
	}
}

// AccountReporting folds reporting-quality observations into a client's
// record: suppressed STAT intervals (declared by the client) and frames
// lost in flight (inferred from sequence gaps). Neither feeds
// classification, so the shard seq is deliberately not bumped — loss
// accounting must never force a snapshot rebuild.
func (db *NMDB) AccountReporting(node int, suppressed, gapLoss uint64) {
	sh, li := db.slot(node)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	if rec := sh.rec(li); rec != nil {
		rec.StatSuppressed += suppressed
		rec.StatGapLoss += gapLoss
	}
	sh.mu.Unlock()
}

// thresholdsFor resolves a node's effective thresholds (its self-declared
// values, falling back to the manager defaults).
func (db *NMDB) thresholdsFor(node int, defaults core.Thresholds) core.Thresholds {
	t := defaults
	sh, li := db.slot(node)
	if sh == nil {
		return t
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.rec(li); rec != nil {
		if rec.CMax > 0 {
			t.CMax = rec.CMax
		}
		if rec.COMax > 0 {
			t.COMax = rec.COMax
		}
	}
	return t
}

// classifyMeta resolves, under one shard-lock acquisition, everything the
// staleness-horizon classifier needs for a node: effective thresholds,
// the two report timestamps, and the previous manager-assigned role.
func (db *NMDB) classifyMeta(node int, defaults core.Thresholds) (t core.Thresholds, lastStat, lastReport time.Time, prevRole core.Role) {
	t = defaults
	sh, li := db.slot(node)
	if sh == nil {
		return t, lastStat, lastReport, prevRole
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return t, lastStat, lastReport, prevRole
	}
	if rec.CMax > 0 {
		t.CMax = rec.CMax
	}
	if rec.COMax > 0 {
		t.COMax = rec.COMax
	}
	return t, rec.LastStat, rec.LastReport, rec.Role
}

// StaleRecords counts registered records whose last report of any kind
// (full STAT or heartbeat) is older than horizon at now — the records the
// classifier refuses to act on. Feeds the dust_nmdb_stale_records gauge.
func (db *NMDB) StaleRecords(now time.Time, horizon time.Duration) int {
	if horizon <= 0 {
		return 0
	}
	stale := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		for li := range sh.recs {
			rec := &sh.recs[li]
			if rec.registered && now.Sub(rec.LastReport) > horizon {
				stale++
			}
		}
		sh.mu.Unlock()
	}
	return stale
}

// SetRole stores a manager-assigned role.
func (db *NMDB) SetRole(node int, role core.Role) {
	sh, li := db.slot(node)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.rec(li); rec != nil {
		rec.Role = role
		db.muts.Add(1)
	}
}

// markHosting adds (or removes, when add is false) busy from dest's
// hosting set, taking dest's shard lock. Callers may hold the ledger
// lock; they must not hold any shard lock.
func (db *NMDB) markHosting(dest, busy int, add bool) {
	sh, li := db.slot(dest)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.rec(li)
	if rec == nil {
		return
	}
	if add {
		rec.hostAdd(busy)
	} else {
		delete(rec.hosting, busy)
	}
}

// RecordOffload writes assignments into the active ledger and marks the
// destinations as hosting. Amounts are absolute: an assignment for a pair
// the ledger already maps replaces that entry (amount, route and response
// time), so recording the same assignment twice changes nothing. The
// ledger holds at most one entry per busy→dest pair. The route's edge list
// is copied, so a later round comparing its plan against the entry never
// reads planner storage that has since been reused.
func (db *NMDB) RecordOffload(assignments []core.Assignment) {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	for _, a := range assignments {
		a.Route.Edges = append([]graph.EdgeID(nil), a.Route.Edges...)
		as := db.active[a.Busy]
		replaced := false
		for i := range as {
			if as[i].Candidate == a.Candidate {
				as[i] = a
				replaced = true
				break
			}
		}
		if !replaced {
			db.active[a.Busy] = append(as, a)
		}
		db.markHosting(a.Candidate, a.Busy, true)
	}
	if len(assignments) > 0 {
		db.muts.Add(1)
	}
}

// SyncHosting reconciles a destination's declared hosting of busy's
// workload (a MsgHostSync) with the ledger. When the ledger still maps
// busy→dest, the client's declared total wins — it reflects the
// Offload-Requests that actually arrived, which can exceed what the
// ledger recorded when an Offload-ACK was lost in transit. The pair's
// entries collapse into one with the declared amount. Returns false when
// the ledger no longer maps busy→dest (substituted or reclaimed while the
// client was away); the caller should withdraw the stale hosting.
func (db *NMDB) SyncHosting(busy, dest int, amount float64) bool {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	as := db.active[busy]
	var kept []core.Assignment
	var first *core.Assignment
	for i := range as {
		if as[i].Candidate == dest {
			if first == nil {
				cp := as[i]
				first = &cp
			}
			continue
		}
		kept = append(kept, as[i])
	}
	if first == nil {
		return false
	}
	first.Amount = amount
	kept = append(kept, *first)
	db.active[busy] = kept
	db.markHosting(dest, busy, true)
	db.muts.Add(1)
	return true
}

// ActiveAssignments returns a copy of the full active ledger.
func (db *NMDB) ActiveAssignments() []core.Assignment {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	var out []core.Assignment
	keys := make([]int, 0, len(db.active))
	for b := range db.active {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	for _, b := range keys {
		out = append(out, db.active[b]...)
	}
	return out
}

// ActiveCount is the number of entries in the active ledger.
func (db *NMDB) ActiveCount() int {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	n := 0
	for _, as := range db.active {
		n += len(as)
	}
	return n
}

// ledgerInto writes every active ledger entry into dst, keyed by its
// busy→dest pair, without copying the ledger first. Route edge lists are
// shared with the ledger, which never writes into them after recording.
func (db *NMDB) ledgerInto(dst map[pendingKey]core.Assignment) {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	for _, as := range db.active {
		for _, a := range as {
			dst[pendingKey{busy: a.Busy, dest: a.Candidate}] = a
		}
	}
}

// Pair returns the ledger entry for busy→dest, if there is one.
func (db *NMDB) Pair(busy, dest int) (core.Assignment, bool) {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	for _, a := range db.active[busy] {
		if a.Candidate == dest {
			return a, true
		}
	}
	return core.Assignment{}, false
}

// ReleasePair removes the busy→dest entry and returns it; ok is false when
// the ledger did not map the pair.
func (db *NMDB) ReleasePair(busy, dest int) (released core.Assignment, ok bool) {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	as := db.active[busy]
	for i, a := range as {
		if a.Candidate != dest {
			continue
		}
		as = append(as[:i], as[i+1:]...)
		if len(as) == 0 {
			delete(db.active, busy)
		} else {
			db.active[busy] = as
		}
		db.markHosting(dest, busy, false)
		db.muts.Add(1)
		return a, true
	}
	return core.Assignment{}, false
}

// ReleaseBusy removes every assignment originating at busy and returns
// them (the reclaim path).
func (db *NMDB) ReleaseBusy(busy int) []core.Assignment {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	as := db.active[busy]
	delete(db.active, busy)
	for _, a := range as {
		db.markHosting(a.Candidate, busy, false)
	}
	if len(as) > 0 {
		db.muts.Add(1)
	}
	return as
}

// ReleaseDestination removes every assignment hosted at dest and returns
// them (the failed-destination path feeding replica selection).
func (db *NMDB) ReleaseDestination(dest int) []core.Assignment {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	var displaced []core.Assignment
	for busy, as := range db.active {
		var keep []core.Assignment
		for _, a := range as {
			if a.Candidate == dest {
				displaced = append(displaced, a)
			} else {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			delete(db.active, busy)
		} else {
			db.active[busy] = keep
		}
	}
	if sh, li := db.slot(dest); sh != nil {
		sh.mu.Lock()
		if rec := sh.rec(li); rec != nil {
			rec.hosting = nil
		}
		sh.mu.Unlock()
	}
	sort.Slice(displaced, func(i, j int) bool {
		if displaced[i].Busy != displaced[j].Busy {
			return displaced[i].Busy < displaced[j].Busy
		}
		return displaced[i].Candidate < displaced[j].Candidate
	})
	if len(displaced) > 0 {
		db.muts.Add(1)
	}
	return displaced
}

// Destinations lists nodes currently hosting offloaded workloads.
func (db *NMDB) Destinations() []int {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	set := make(map[int]bool)
	for _, as := range db.active {
		for _, a := range as {
			set[a.Candidate] = true
		}
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
