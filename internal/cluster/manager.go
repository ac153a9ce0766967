package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/databus"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/verify"
)

// ManagerNode is the conventional node ID of the DUST-Manager in message
// From/To fields.
const ManagerNode int32 = -1

// StandbyNode is the conventional From ID a warm-standby manager uses when
// it introduces itself to the primary with MsgReplHello.
const StandbyNode int32 = -2

// ManagerConfig configures a DUST-Manager.
type ManagerConfig struct {
	// Topology is the network graph stored in the NMDB.
	Topology *graph.Graph
	// Defaults are the thresholds for clients that do not declare their
	// own CMax/COMax.
	Defaults core.Thresholds
	// Params configures the optimization engine.
	Params core.Params
	// NMDBShards stripes the NMDB client registry across this many locks
	// so concurrent STAT/keepalive ingest does not serialize; 0 selects
	// cluster.DefaultNMDBShards.
	NMDBShards int
	// UpdateIntervalSec is the STAT cadence assigned in ACK messages
	// (the paper's Update-Interval Time, "typically in minutes").
	UpdateIntervalSec float64
	// KeepaliveTimeout is how stale a destination's keepalive may be
	// before it is declared failed and substituted (Section III-C).
	KeepaliveTimeout time.Duration
	// StalenessHorizon bounds how old a record's last report of any kind
	// (full STAT or max-silence heartbeat) may be before classification
	// refuses to act on it (DESIGN.md §16). Inside the horizon a record
	// whose sample is stale but whose heartbeats are fresh holds its
	// previous verdict — the client asserted its values are unchanged
	// within its deadbands. Beyond it the record classifies neutral:
	// excluded from both the busy and candidate sets, and counted in the
	// dust_nmdb_stale_records gauge. This is a data-freshness clock,
	// deliberately separate from KeepaliveTimeout (a destination-liveness
	// clock): heartbeats never touch LastKeepalive. 0 disables the
	// horizon, restoring the always-act-on-last-sample behavior.
	StalenessHorizon time.Duration
	// AckTimeout bounds how long a placement waits for Offload-ACKs.
	AckTimeout time.Duration
	// PlacementRetries is how many times RunPlacement re-offers a busy
	// node's excess after a declined or timed-out Offload-ACK, re-solving
	// the restricted min-cost problem with the failed destinations
	// excluded (mirroring Algorithm 1's candidate restriction). 0 keeps
	// the single-shot behavior.
	PlacementRetries int
	// VerifyPlacements runs verify.CheckResult over every solver result
	// before any Offload-Request leaves the manager: constraints 3a/3b,
	// route-cost consistency, and the reported objective are re-derived
	// from the snapshot, and a violation fails the round loudly instead
	// of shipping a corrupt placement. Debug/belt-and-braces flag; the
	// audit is O(assignments) and cheap next to the solve itself.
	VerifyPlacements bool
	// CheckpointPath, when non-empty, makes the manager durable: NMDB
	// state is restored from this file at construction (a missing file
	// starts blind; a corrupt one is moved aside and recorded in
	// RestoreError) and checkpointed back on every CheckpointInterval and
	// on Close.
	CheckpointPath string
	// CheckpointInterval is the periodic checkpoint cadence; 0 means
	// 30 seconds, negative disables periodic checkpoints (shutdown and
	// explicit SaveCheckpoint still write).
	CheckpointInterval time.Duration
	// ReplicationInterval is the cadence at which connected standbys are
	// sent snapshots (full snapshot when state changed since the last
	// ship, a bare heartbeat otherwise); 0 means 1 second.
	ReplicationInterval time.Duration
	// Follower starts the manager in standby mode: it NACKs client
	// handshakes and refuses placement rounds until Promote is called.
	Follower bool
	// GraceWindow bounds degraded mode after a restore or promotion:
	// evictions, reclaims, and substitutions are deferred until either a
	// ResyncQuorum fraction of the restored clients has re-handshaked or
	// the window expires. 0 means 2×KeepaliveTimeout; negative disables
	// degraded mode entirely.
	GraceWindow time.Duration
	// ResyncQuorum is the fraction of restored clients whose re-handshake
	// ends degraded mode early; 0 means 0.5, values above 1 clamp to 1.
	ResyncQuorum float64
	// Now injects a clock; nil means time.Now (tests inject virtual time).
	Now func() time.Time
	// MeasuredCosts enables the measured-latency control loop (DESIGN.md
	// §15): probe reports from clients land in a graph.MeasuredCosts
	// overlay whose per-edge factors discount the rate model behind every
	// route cost, so placements chase measured congestion instead of the
	// static topology.
	MeasuredCosts bool
	// MeasuredStaleAfter bounds a probe measurement's lifetime in the
	// overlay (0 = graph.DefaultMeasuredStaleAfter).
	MeasuredStaleAfter time.Duration
	// Metrics is the observability registry the manager instruments; nil
	// means a private registry (instrumentation is always on — it is
	// atomic-counter cheap — and Metrics() exposes whichever registry is
	// in use, so a scrape endpoint can be attached later).
	Metrics *obs.Registry
	// Databus, when set, is the telemetry data plane: every ingested STAT
	// is republished as per-node series (see StatSeriesKeys), and
	// telemetry-batch frames from offload destinations are decoded into
	// it. nil keeps the manager control-plane only.
	Databus *databus.Bus
}

// Manager is the DUST decision node.
type Manager struct {
	cfg     ManagerConfig
	nmdb    *NMDB
	planner *core.Planner
	metrics *managerMetrics
	// measured is the probe-fed edge-cost overlay (nil unless
	// cfg.MeasuredCosts); the planner's Params share the pointer.
	measured *graph.MeasuredCosts
	store    *CheckpointStore
	// bridge republishes ingested STATs onto cfg.Databus; nil without one.
	bridge *statBridge
	// stop ends the checkpoint and replication loops; closed once by Close.
	stop chan struct{}
	// restoreErr records a checkpoint that existed but failed validation
	// at construction (the manager started blind; availability first).
	restoreErr error

	// tickMu serializes placement rounds: RunPlacement reads the NMDB
	// through SnapshotState, whose reused buffers are only valid while
	// ticks do not overlap (see that method's aliasing contract).
	tickMu sync.Mutex
	// round is the placement round's ledger, cleared and reused by each
	// round. Guarded by tickMu.
	round roundLedger
	// tx is the frame a round's offers, redirects and releases are
	// written in. Guarded by tickMu.
	tx outFrame
	// seq numbers every frame the manager sends.
	seq atomic.Uint64

	mu    sync.Mutex
	conns map[int]proto.Conn
	// handshakes tracks connections still mid-Attach so Close can unblock
	// and wait for in-flight handshakes instead of racing them.
	handshakes map[proto.Conn]struct{}
	pending    map[pendingKey]*pendingOffload
	// pairSync timestamps each ledger pair's last client confirmation
	// (its Offload-ACK, REP send, or Host-Sync declaration); destSync
	// timestamps each destination's last Host-Sync of any pair. Together
	// they drive the resync sweep in CheckKeepalives.
	pairSync map[pendingKey]time.Time
	destSync map[int]time.Time
	wg       sync.WaitGroup
	closed   bool

	// follower is true while the manager is an unpromoted standby.
	follower bool
	// replicas tracks connected standbys receiving snapshot streams.
	replicas map[*replica]struct{}
	// degraded-mode state (see enterDegraded): while degraded, evictions,
	// reclaims, and substitutions are deferred and unknown Host-Sync pairs
	// adopted instead of dropped.
	degraded   bool
	graceUntil time.Time
	resyncBase int
	resynced   map[int]bool
}

// replica is one connected standby's replication link.
type replica struct {
	conn proto.Conn
	// sent and acked are the epoch of the last snapshot shipped to and
	// acknowledged by this standby; their gap is the replication lag.
	sent  atomic.Uint64
	acked atomic.Uint64
}

type pendingKey struct{ busy, dest int }

type pendingOffload struct {
	assignment core.Assignment
	done       chan bool // receives the Offload-ACK verdict
}

// NewManager creates a manager over the given configuration.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Topology == nil {
		return nil, errors.New("cluster: manager needs a topology")
	}
	if err := cfg.Defaults.Validate(); err != nil {
		return nil, err
	}
	if cfg.UpdateIntervalSec <= 0 {
		cfg.UpdateIntervalSec = 60
	}
	if cfg.KeepaliveTimeout <= 0 {
		cfg.KeepaliveTimeout = 3 * time.Duration(cfg.UpdateIntervalSec*float64(time.Second))
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	if cfg.ReplicationInterval <= 0 {
		cfg.ReplicationInterval = time.Second
	}
	if cfg.GraceWindow == 0 {
		cfg.GraceWindow = 2 * cfg.KeepaliveTimeout
	}
	if cfg.ResyncQuorum <= 0 {
		cfg.ResyncQuorum = 0.5
	}
	if cfg.ResyncQuorum > 1 {
		cfg.ResyncQuorum = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.Params.Thresholds = cfg.Defaults
	var measured *graph.MeasuredCosts
	if cfg.MeasuredCosts {
		measured = graph.NewMeasuredCosts(cfg.Topology, cfg.MeasuredStaleAfter, cfg.Now)
		cfg.Params.Measured = measured
	}
	m := &Manager{
		cfg:        cfg,
		nmdb:       NewNMDBSharded(cfg.Topology, cfg.NMDBShards),
		measured:   measured,
		planner:    core.NewPlanner(cfg.Params),
		metrics:    newManagerMetrics(cfg.Metrics),
		stop:       make(chan struct{}),
		conns:      make(map[int]proto.Conn),
		handshakes: make(map[proto.Conn]struct{}),
		pending:    make(map[pendingKey]*pendingOffload),
		pairSync:   make(map[pendingKey]time.Time),
		destSync:   make(map[int]time.Time),
		follower:   cfg.Follower,
		replicas:   make(map[*replica]struct{}),
	}
	if cfg.Databus != nil {
		m.bridge = newStatBridge(cfg.Databus, cfg.Topology.NumNodes())
	}
	m.metrics.bindGauges(cfg.Metrics, m.nmdb, m.planner)
	m.metrics.bindHAGauges(cfg.Metrics, m)
	if measured != nil {
		cfg.Metrics.GaugeFunc("dust_manager_measured_edges",
			"topology edges carrying a live probe measurement",
			func() float64 { return float64(measured.Measured()) })
	}
	if cfg.StalenessHorizon > 0 {
		db, horizon, now := m.nmdb, cfg.StalenessHorizon, cfg.Now
		cfg.Metrics.GaugeFunc("dust_nmdb_stale_records",
			"registered records past the staleness horizon (classified neutral)",
			func() float64 { return float64(db.StaleRecords(now(), horizon)) })
	}
	if cfg.CheckpointPath != "" {
		m.store = NewCheckpointStore(cfg.CheckpointPath)
		switch err := m.store.Load(m.nmdb); {
		case err == nil:
			m.metrics.checkpointLoads["ok"].Inc()
			if !m.follower {
				m.enterDegraded()
			}
		case errors.Is(err, fs.ErrNotExist):
			m.metrics.checkpointLoads["missing"].Inc()
		default:
			// Availability first: the corrupt file was moved aside by the
			// store, the manager starts blind, and the cause stays visible
			// through RestoreError and the counter.
			m.metrics.checkpointLoads["error"].Inc()
			m.restoreErr = err
		}
		if cfg.CheckpointInterval > 0 {
			m.wg.Add(1)
			go m.checkpointLoop()
		}
	}
	return m, nil
}

// RestoreError reports a checkpoint that existed at construction but
// failed to load (the manager started blind). nil after a clean or
// fresh start.
func (m *Manager) RestoreError() error { return m.restoreErr }

// checkpointLoop periodically persists the NMDB, skipping writes while
// the state version is unchanged since the last successful one.
func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.CheckpointInterval)
	defer t.Stop()
	var lastVer uint64
	wrote := false
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		ver := m.nmdb.StateVersion()
		if wrote && ver == lastVer {
			continue
		}
		if m.SaveCheckpoint() == nil {
			lastVer, wrote = ver, true
		}
	}
}

// SaveCheckpoint writes the NMDB to the configured checkpoint path now.
func (m *Manager) SaveCheckpoint() error {
	if m.store == nil {
		return errors.New("cluster: no checkpoint path configured")
	}
	if err := m.store.Save(m.nmdb); err != nil {
		m.metrics.checkpointWrites["failed"].Inc()
		return err
	}
	m.metrics.checkpointWrites["ok"].Inc()
	return nil
}

// ErrFollower is returned by RunPlacement on an unpromoted standby.
var ErrFollower = errors.New("cluster: manager is a follower (standby not promoted)")

// IsFollower reports whether the manager is an unpromoted standby.
func (m *Manager) IsFollower() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.follower
}

// Promote turns a follower into the active manager: it starts accepting
// client handshakes and placement rounds, entering degraded mode (grace
// window) so restored-but-unconfirmed state is not evicted before clients
// have a chance to resync. Safe to call on an already-active manager.
func (m *Manager) Promote() {
	m.mu.Lock()
	if !m.follower {
		m.mu.Unlock()
		return
	}
	m.follower = false
	m.mu.Unlock()
	m.metrics.promotions.Inc()
	m.enterDegraded()
}

// enterDegraded starts the post-restore/post-promotion grace window:
// until a ResyncQuorum fraction of the clients known at entry has
// re-handshaked (or the window expires), keepalive evictions, reclaims,
// and disconnect substitutions are deferred, and Host-Sync declarations
// for pairs the ledger lacks are adopted instead of dropped — restored
// state is treated as stale-but-plausible rather than authoritative.
func (m *Manager) enterDegraded() {
	if m.cfg.GraceWindow < 0 {
		return
	}
	base := len(m.nmdb.Nodes())
	m.mu.Lock()
	m.degraded = true
	m.graceUntil = m.cfg.Now().Add(m.cfg.GraceWindow)
	m.resyncBase = base
	m.resynced = make(map[int]bool)
	m.mu.Unlock()
	m.metrics.degradedEvents["entered"].Inc()
}

// degradedNow reports whether degraded mode is still in force at now,
// first applying the exit conditions (quorum reached or window expired).
func (m *Manager) degradedNow(now time.Time) bool {
	m.mu.Lock()
	if !m.degraded {
		m.mu.Unlock()
		return false
	}
	quorumMet := float64(len(m.resynced)) >= m.cfg.ResyncQuorum*float64(m.resyncBase)
	expired := !now.Before(m.graceUntil)
	if !quorumMet && !expired {
		m.mu.Unlock()
		return true
	}
	m.degraded = false
	m.resynced = nil
	m.mu.Unlock()
	if quorumMet {
		m.metrics.degradedEvents["exited_quorum"].Inc()
	} else {
		m.metrics.degradedEvents["exited_expired"].Inc()
	}
	return false
}

// Degraded reports whether the manager is currently deferring evictions
// (evaluating the exit conditions as a side effect).
func (m *Manager) Degraded() bool { return m.degradedNow(m.cfg.Now()) }

// markResynced counts a client's re-handshake toward the degraded-mode
// quorum.
func (m *Manager) markResynced(node int) {
	m.mu.Lock()
	if m.degraded {
		m.resynced[node] = true
	}
	m.mu.Unlock()
}

// touchPair timestamps a ledger pair as confirmed by (or sent to) its
// destination.
func (m *Manager) touchPair(busy, dest int, at time.Time) {
	m.mu.Lock()
	m.pairSync[pendingKey{busy: busy, dest: dest}] = at
	m.mu.Unlock()
}

// NMDB exposes the manager's database (read-mostly; used by tooling).
func (m *Manager) NMDB() *NMDB { return m.nmdb }

// Planner exposes the manager's planner (route-cache stats).
func (m *Manager) Planner() *core.Planner { return m.planner }

// Metrics exposes the registry the manager instruments — the configured
// one, or the private registry created when none was configured. Serve it
// with obs.Serve to get /metrics, /healthz, and pprof.
func (m *Manager) Metrics() *obs.Registry { return m.cfg.Metrics }

// RouteCacheStats reports the planner's route-cache traffic (hits, misses,
// evictions, flushes) — the observable trace of measured-cost revalidation.
func (m *Manager) RouteCacheStats() core.CacheStats { return m.planner.Cache().Stats() }

// MeasuredCosts exposes the probe-fed edge-cost overlay, or nil when the
// manager runs on static configured rates (cfg.MeasuredCosts false).
func (m *Manager) MeasuredCosts() *graph.MeasuredCosts { return m.measured }

var errManagerClosed = errors.New("cluster: manager closed")

// Attach adopts a client connection: it performs the registration
// handshake (Offload-capable → ACK) and then services the connection in a
// background goroutine until it closes. It returns the registered node ID.
// Rejected registrations are answered with a NACK (an ACK carrying an
// Error) before the connection is dropped, so the client fails fast with a
// diagnosable cause. A node re-attaching supersedes its previous
// connection.
func (m *Manager) Attach(conn proto.Conn) (int, error) {
	conn = m.metrics.conn.Wrap(conn)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return 0, errManagerClosed
	}
	m.handshakes[conn] = struct{}{}
	m.wg.Add(1)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.handshakes, conn)
		m.mu.Unlock()
		m.wg.Done()
	}()

	var first proto.Message
	if err := conn.Recv(&first); err != nil {
		return 0, fmt.Errorf("cluster: handshake recv: %w", err)
	}
	if first.Type == proto.MsgReplHello {
		return m.attachReplica(conn, first.From)
	}
	if first.Type != proto.MsgOffloadCapable {
		reason := fmt.Sprintf("handshake requires offload-capable, got %v", first.Type)
		m.nack(conn, first.From, reason)
		m.metrics.handshakes["rejected"].Inc()
		return 0, errors.New("cluster: " + reason)
	}
	if m.IsFollower() {
		// A standby serves its listener from process start so clients can
		// fail over the moment it promotes; until then they are refused
		// with a diagnosable cause and rotate to their next manager.
		reason := "manager is a standby (not promoted)"
		m.nack(conn, first.From, reason)
		m.metrics.handshakes["rejected"].Inc()
		return 0, errors.New("cluster: " + reason)
	}
	node := int(first.From)
	if err := m.nmdb.Register(node, first.Capable, first.CMax, first.COMax); err != nil {
		m.nack(conn, first.From, err.Error())
		m.metrics.handshakes["rejected"].Inc()
		return 0, err
	}
	m.metrics.handshakes["ok"].Inc()
	ack := &proto.Message{
		Type: proto.MsgAck, From: ManagerNode, To: first.From,
		Seq: m.nextSeq(), UpdateIntervalSec: m.cfg.UpdateIntervalSec,
	}
	if err := conn.Send(ack); err != nil {
		return 0, fmt.Errorf("cluster: handshake ack: %w", err)
	}
	m.markResynced(node)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return 0, errManagerClosed
	}
	old := m.conns[node]
	m.conns[node] = conn
	m.wg.Add(1)
	m.mu.Unlock()
	if old != nil && old != conn {
		// A reconnecting client supersedes its stale connection. Closing it
		// releases the old serveConn, which sees the node still attached
		// and therefore does not trigger substitution.
		old.Close()
	}

	go func() {
		defer m.wg.Done()
		m.serveConn(node, conn)
	}()
	return node, nil
}

// nack answers a rejected registration with a typed refusal so the client
// fails fast with a diagnosable error instead of a bare ErrClosed.
func (m *Manager) nack(conn proto.Conn, to int32, reason string) {
	_ = conn.Send(&proto.Message{
		Type: proto.MsgAck, From: ManagerNode, To: to,
		Seq: m.nextSeq(), Error: reason,
	})
}

// attachReplica adopts a standby's replication connection: it confirms the
// hello with an ACK and starts a snapshot-streaming sender plus an ack
// reader. The sender ships a full checksummed snapshot whenever the NMDB
// state version moved since the last ship and a bare heartbeat otherwise,
// so an idle cluster costs two small frames per interval. Returns
// StandbyNode as the attached identity.
func (m *Manager) attachReplica(conn proto.Conn, from int32) (int, error) {
	ack := &proto.Message{
		Type: proto.MsgAck, From: ManagerNode, To: from, Seq: m.nextSeq(),
	}
	if err := conn.Send(ack); err != nil {
		return 0, fmt.Errorf("cluster: replica hello ack: %w", err)
	}
	r := &replica{conn: conn}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return 0, errManagerClosed
	}
	m.replicas[r] = struct{}{}
	m.wg.Add(2)
	m.mu.Unlock()
	m.metrics.replicasAttached.Inc()
	go func() {
		defer m.wg.Done()
		m.serveReplica(r)
	}()
	go func() {
		defer m.wg.Done()
		m.readReplicaAcks(r)
	}()
	return int(StandbyNode), nil
}

// serveReplica streams snapshots/heartbeats to one standby until the
// connection or the manager closes.
func (m *Manager) serveReplica(r *replica) {
	ticker := time.NewTicker(m.cfg.ReplicationInterval)
	defer ticker.Stop()
	var lastVer uint64
	shipped := false
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		ver := m.nmdb.StateVersion()
		var blob []byte
		if !shipped || ver != lastVer {
			var buf bytes.Buffer
			if err := m.nmdb.SaveSnapshot(&buf); err != nil {
				continue
			}
			blob = buf.Bytes()
		}
		epoch := r.sent.Load()
		if blob != nil {
			epoch++
		}
		msg := &proto.Message{
			Type: proto.MsgReplSnapshot, From: ManagerNode, To: StandbyNode,
			Seq: epoch, Blob: blob,
		}
		if err := r.conn.Send(msg); err != nil {
			m.dropReplica(r)
			return
		}
		if blob != nil {
			r.sent.Store(epoch)
			lastVer, shipped = ver, true
			m.metrics.replSnapshots.Inc()
		} else {
			m.metrics.replHeartbeats.Inc()
		}
	}
}

// readReplicaAcks tracks the standby's applied-epoch acknowledgements
// (feeding the replication lag gauge) until the connection closes.
func (m *Manager) readReplicaAcks(r *replica) {
	var msg proto.Message
	for {
		if err := r.conn.Recv(&msg); err != nil {
			m.dropReplica(r)
			return
		}
		if msg.Type == proto.MsgReplAck && msg.Seq > r.acked.Load() {
			r.acked.Store(msg.Seq)
		}
	}
}

// dropReplica removes a replication link; idempotent (both the sender and
// the ack reader call it on error).
func (m *Manager) dropReplica(r *replica) {
	m.mu.Lock()
	_, present := m.replicas[r]
	delete(m.replicas, r)
	m.mu.Unlock()
	if present {
		m.metrics.replicasDropped.Inc()
	}
	r.conn.Close()
}

// replicationLag returns the worst sent-minus-acked epoch gap across
// connected standbys.
func (m *Manager) replicationLag() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var lag uint64
	for r := range m.replicas {
		if d := r.sent.Load() - r.acked.Load(); d > lag && r.sent.Load() >= r.acked.Load() {
			lag = d
		}
	}
	return lag
}

// Serve accepts and attaches connections until the listener closes.
func (m *Manager) Serve(l *proto.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			if _, err := m.Attach(conn); err != nil {
				conn.Close()
			}
		}()
	}
}

// Close detaches all clients and replicas and stops connection handlers,
// waiting for in-flight handshakes as well as established connections.
// When a checkpoint path is configured, the final state is checkpointed
// after every handler has drained.
func (m *Manager) Close() {
	m.mu.Lock()
	wasClosed := m.closed
	m.closed = true
	conns := make([]proto.Conn, 0, len(m.conns)+len(m.handshakes)+len(m.replicas))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	for c := range m.handshakes {
		conns = append(conns, c)
	}
	for r := range m.replicas {
		conns = append(conns, r.conn)
	}
	m.conns = make(map[int]proto.Conn)
	m.mu.Unlock()
	if !wasClosed {
		close(m.stop)
	}
	for _, c := range conns {
		c.Close()
	}
	m.wg.Wait()
	if m.store != nil && !wasClosed {
		_ = m.SaveCheckpoint()
	}
}

func (m *Manager) nextSeq() uint64 { return m.seq.Add(1) }

func (m *Manager) connFor(node int) (proto.Conn, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.conns[node]
	return c, ok
}

// statBatchMax bounds how many buffered STAT reports a single RecordStats
// call applies.
const statBatchMax = 64

// seqTracker infers lost frames from the per-sender sequence numbers on
// one connection. Clients stamp every outgoing frame from a single
// monotonic counter, so a jump of k>1 between consecutively received
// frames means k-1 frames never arrived. A frame at or below the last
// seen sequence is a duplicate or a reordered straggler and counts
// nothing — which also means the inferred loss is an upper bound: a
// frame that overtook its predecessor books a gap its late sibling can
// no longer repay. Reconnects get a fresh tracker per connection, so
// cross-session numbering never reads as loss.
type seqTracker struct {
	last uint64
	seen bool
}

// observe folds one received sequence number in and returns how many
// frames were lost immediately ahead of it.
func (st *seqTracker) observe(seq uint64) uint64 {
	if !st.seen {
		st.seen = true
		st.last = seq
		return 0
	}
	if seq <= st.last {
		return 0
	}
	gap := seq - st.last - 1
	st.last = seq
	return gap
}

// accountFrame runs the per-frame reporting-loss bookkeeping: sequence
// gaps on any frame type, plus the suppressed-interval count STAT frames
// declare. Both halves land in the manager-wide counters and, when
// nonzero, in the sender's NMDB record — per-client sustained loss and
// sustained suppression read differently (lossy path vs quiet client),
// so the record keeps them apart.
func (m *Manager) accountFrame(node int, st *seqTracker, msg *proto.Message) {
	gap := st.observe(msg.Seq)
	var suppressed uint64
	if msg.Type == proto.MsgStat {
		suppressed = uint64(msg.StatSuppressed)
	}
	if suppressed != 0 {
		m.metrics.statsSuppressed.Add(suppressed)
	}
	if gap != 0 {
		m.metrics.statGapLoss.Add(gap)
	}
	if suppressed != 0 || gap != 0 {
		m.nmdb.AccountReporting(node, suppressed, gap)
	}
}

// serveConn dispatches a client's messages until its connection closes.
// One goroutine reads and dispatches, decoding every frame into the same
// Message. Consecutive in-band STAT reports are coalesced into one batched
// NMDB ingest (RecordStats takes each touched shard lock once per batch
// instead of once per report): a batch is the run of STATs the connection
// already holds at one wake-up, flushed once no further frame is buffered
// or it reaches statBatchMax. Ordering within the connection is preserved:
// a batch is flushed before any other message is handled, and every
// message is handled in stream order with no queue in between — so a
// handle() that blocks (a probe relay under its write deadline) stalls
// this session's reads rather than piling frames up behind it.
//
// An abrupt disconnect of a node that is still attached (not superseded by
// a reconnect, not part of manager shutdown) is treated as an immediate
// keepalive failure: in-flight offers to the node are declined and its
// hosted workloads re-placed on replicas without waiting for the
// keepalive timeout.
func (m *Manager) serveConn(node int, conn proto.Conn) {
	var (
		msg   proto.Message
		batch []Stat
		seqs  seqTracker
	)
	for {
		if err := conn.Recv(&msg); err != nil {
			m.flushStats(&batch)
			m.connLost(node, conn)
			return
		}
		m.accountFrame(node, &seqs, &msg)
		// Heartbeat STATs go to handle(): they must not enter the value
		// batch (RecordStats would adopt their re-affirmed values as a
		// fresh sample and bump the shard seq).
		if msg.Type == proto.MsgStat && !msg.StatHeartbeat {
			batch = append(batch, Stat{
				Node: node, UtilPct: msg.UtilPct, DataMb: msg.DataMb,
				NumAgents: int(msg.NumAgents), At: m.cfg.Now(),
			})
			if len(batch) >= statBatchMax || conn.Buffered() == 0 {
				m.flushStats(&batch)
			}
			continue
		}
		m.flushStats(&batch)
		m.handle(node, &msg)
	}
}

// flushStats applies a pending STAT batch and resets it.
func (m *Manager) flushStats(batch *[]Stat) {
	if len(*batch) == 0 {
		return
	}
	_ = m.nmdb.RecordStats(*batch)
	m.metrics.statBatches.Inc()
	m.metrics.statsIngested.Add(uint64(len(*batch)))
	if m.bridge != nil {
		m.bridge.publishStats(*batch)
	}
	*batch = (*batch)[:0]
}

// connLost runs the disconnect path for a connection whose recv loop
// ended.
func (m *Manager) connLost(node int, conn proto.Conn) {
	m.mu.Lock()
	active := m.conns[node] == conn
	if active {
		delete(m.conns, node)
	}
	closing := m.closed
	m.mu.Unlock()
	if active && !closing {
		m.metrics.disconnects.Inc()
		m.failPending(node)
		m.substituteDest(node)
	}
}

// failPending resolves every in-flight offer destined for node as declined:
// the node is gone, so its Offload-ACK will never arrive and the placement
// should move to the next candidate immediately.
func (m *Manager) failPending(node int) {
	m.mu.Lock()
	var failed []*pendingOffload
	for k, p := range m.pending {
		if k.dest == node {
			failed = append(failed, p)
			delete(m.pending, k)
		}
	}
	m.mu.Unlock()
	for _, p := range failed {
		select {
		case p.done <- false:
		default:
		}
	}
}

// handle dispatches one non-batched message. msg is serveConn's reused
// receive buffer: handle must not keep msg itself past its return (its
// slices are freshly allocated per frame and may be kept).
func (m *Manager) handle(node int, msg *proto.Message) {
	now := m.cfg.Now()
	switch msg.Type {
	case proto.MsgStat:
		if msg.StatHeartbeat {
			// Max-silence heartbeat: the client re-affirmed its last-sent
			// values. Only the record's report age moves — the values are
			// not a fresh sample and must not bump the snapshot seq or be
			// republished as new telemetry.
			m.metrics.statHeartbeats.Inc()
			_ = m.nmdb.RecordHeartbeat(node, now)
			return
		}
		// Suppressed-interval counts are folded in by serveConn's
		// accountFrame (once per received frame); handle() must not
		// double-count them.
		_ = m.nmdb.RecordStat(node, msg.UtilPct, msg.DataMb, int(msg.NumAgents), now)
		if m.bridge != nil {
			m.bridge.publishStat(node, msg.UtilPct, msg.DataMb, int(msg.NumAgents), now)
		}
	case proto.MsgTelemetryBatch:
		m.handleTelemetryBatch(msg.Blob)
	case proto.MsgKeepalive:
		_ = m.nmdb.RecordKeepalive(node, now)
	case proto.MsgOffloadCapable:
		// Re-registration on an existing connection (capability change).
		_ = m.nmdb.Register(node, msg.Capable, msg.CMax, msg.COMax)
	case proto.MsgOffloadAck:
		key := pendingKey{busy: int(msg.BusyNode), dest: node}
		m.mu.Lock()
		p, ok := m.pending[key]
		if ok {
			delete(m.pending, key)
		}
		m.mu.Unlock()
		if !ok {
			return
		}
		// The busy node's redirect waits for the end of the round, which
		// knows the pair's final amount (a retry may still grow it).
		if msg.Accept {
			m.nmdb.RecordOffload([]core.Assignment{p.assignment})
			m.touchPair(p.assignment.Busy, p.assignment.Candidate, now)
		}
		p.done <- msg.Accept
	case proto.MsgProbe, proto.MsgProbeReply:
		// Client-to-client relay: clients only connect to the manager, so
		// probe frames hop through it. The frame is re-sequenced from the
		// manager's counter so client-side duplicate suppression keeps
		// working; it is sent from the receive buffer itself, which no
		// Send retains. A disconnected target drops the probe — which is
		// exactly what the pinger's timeout machinery expects of a dead
		// path.
		conn, ok := m.connFor(int(msg.To))
		if !ok {
			m.metrics.probeRelays["dropped"].Inc()
			return
		}
		msg.Seq = m.nextSeq()
		if err := conn.Send(msg); err != nil {
			m.metrics.probeRelays["dropped"].Inc()
			return
		}
		m.metrics.probeRelays["ok"].Inc()
	case proto.MsgProbeReport:
		m.metrics.probeReports.Inc()
		if m.measured == nil {
			return // probing without -measured-costs: reports are inert
		}
		for _, s := range msg.ProbeSamples {
			if s.RTTNs < 0 {
				// Withdrawal: the prober's estimate for this peer went
				// stale, so drop the edge's measured discount now rather
				// than holding it for the overlay's own lease.
				m.measured.Forget(node, int(s.Peer))
				m.metrics.probeSamples["expired"].Inc()
				continue
			}
			if m.measured.Observe(node, int(s.Peer), time.Duration(s.RTTNs), s.Loss, now) {
				m.metrics.probeSamples["mapped"].Inc()
			} else {
				m.metrics.probeSamples["unmapped"].Inc()
			}
		}
	case proto.MsgHostSync:
		busy := int(msg.BusyNode)
		m.mu.Lock()
		m.destSync[node] = now
		m.mu.Unlock()
		if m.nmdb.SyncHosting(busy, node, msg.AmountPct) {
			m.metrics.hostSync["synced"].Inc()
			m.touchPair(busy, node, now)
			return
		}
		if m.degradedNow(now) {
			// Degraded mode inverts the trust relationship: the ledger was
			// restored from a checkpoint that may predate this assignment,
			// so a destination declaring real hosting the ledger lacks is
			// evidence the checkpoint missed it. Adopt the pair instead of
			// ordering a drop — this is the anti-entropy path that makes
			// failover lose zero active assignments.
			m.metrics.hostSync["adopted"].Inc()
			m.nmdb.RecordOffload([]core.Assignment{{
				Busy: busy, Candidate: node, Amount: msg.AmountPct,
			}})
			m.touchPair(busy, node, now)
			return
		}
		m.metrics.hostSync["stale"].Inc()
		// The ledger no longer maps busy→node: the pair was substituted or
		// reclaimed while the client was away. Unless an offer for it is
		// still in flight (whose ACK will re-create the mapping), tell the
		// client to drop the stale hosting.
		m.mu.Lock()
		_, inFlight := m.pending[pendingKey{busy: busy, dest: node}]
		m.mu.Unlock()
		if inFlight {
			return
		}
		if conn, ok := m.connFor(node); ok {
			_ = conn.Send(&proto.Message{
				Type: proto.MsgOffloadRequest, From: ManagerNode,
				To: int32(node), Seq: m.nextSeq(),
				BusyNode: int32(busy), AmountPct: 0,
			})
		}
	}
}

// outFrame is a reusable outgoing frame: the Message a send is built in
// and the buffer its route is written to. Conn.Send retains neither, so
// one outFrame serves any number of sends, one at a time.
type outFrame struct {
	msg   proto.Message
	route []int32
}

// wireRoute writes a's route to f's buffer as the node sequence carried on
// the wire; assignments without an explicit route (replica substitutions)
// degrade to the endpoint pair. The result is valid until f's next use.
func (f *outFrame) wireRoute(a core.Assignment, g *graph.Graph) []int32 {
	if len(a.Route.Edges) == 0 {
		f.route = append(f.route[:0], int32(a.Busy), int32(a.Candidate))
	} else {
		f.route = graph.AppendNodes(f.route[:0], g, a.Route)
	}
	return f.route
}

// offloadRequest writes an Offload-Request to node to into f: busy's
// workload, amount percent of it, along route. The same frame is a hosting
// request (to the destination), a redirect (to busy itself) and, with
// amount 0 and no route, a release.
func (m *Manager) offloadRequest(f *outFrame, to, busy int, amount float64, route []int32) *proto.Message {
	f.msg = proto.Message{
		Type: proto.MsgOffloadRequest, From: ManagerNode,
		To: int32(to), Seq: m.nextSeq(),
		BusyNode: int32(busy), AmountPct: amount, RouteNodes: route,
	}
	return &f.msg
}

// sendRedirect tells the busy node, from frame f, to redirect a.Amount of
// its monitoring data toward a's destination (an absolute share for that
// destination).
func (m *Manager) sendRedirect(f *outFrame, a core.Assignment) {
	conn, ok := m.connFor(a.Busy)
	if !ok {
		return
	}
	_ = conn.Send(m.offloadRequest(f, a.Busy, a.Busy, a.Amount, f.wireRoute(a, m.nmdb.Topology())))
}

// PlacementReport is the outcome of one placement round.
type PlacementReport struct {
	// Result is the optimization output (nil when no busy nodes existed).
	Result *core.Result
	// Accepted lists every pair hosting at the end of the round, one entry
	// per busy→dest pair with its absolute amount, sorted by busy node and
	// then destination. It covers the pairs whose Offload-ACK accepted this
	// round, the pairs kept from the ledger without an offer, and resizes
	// the destination declined (the old amount stays in force). Each entry
	// got one redirect to its busy node. Declined and TimedOut list the
	// offers that failed by verdict; with PlacementRetries > 0 they hold
	// only the final attempt's failures.
	Accepted, Declined, TimedOut []core.Assignment
	// Kept counts the Accepted pairs whose ledger entry already matched
	// the plan exactly (same amount, same route edges): they cost the
	// round a redirect and no Offload-Request.
	Kept int
	// Released lists the ledger pairs the round withdrew: pairs the plan
	// no longer contains, pairs of origins that stopped classifying busy,
	// and offers that timed out. Each destination was sent a release.
	Released []core.Assignment
	// Retried lists assignments that failed an attempt and whose busy
	// node's excess was re-offered to the remaining candidates (their
	// replacements, when accepted, appear in Accepted).
	Retried []core.Assignment
	// Unplaced lists failed assignments whose excess no remaining
	// candidate could host, so the retry loop gave up on them.
	Unplaced []core.Assignment
}

// Abandoned counts assignments that ended the placement without a hosting
// destination.
func (r *PlacementReport) Abandoned() int {
	return len(r.Declined) + len(r.TimedOut) + len(r.Unplaced)
}

// RunPlacement executes one round of the DUST Monitoring Placement
// Workflow: snapshot the NMDB, classify roles (honoring per-client
// thresholds), run the optimization engine, and converge the offload
// ledger to the round's plan.
//
// A STAT reports a node's own demand: the load it would carry with nothing
// redirected away and nothing hosted for others. The plan is therefore the
// complete, absolute set of pairs the round wants in force, and every
// Offload-Request carries its pair's absolute amount. The round diffs the
// plan against the ledger: a pair the ledger already holds with the same
// amount and route edges is kept without an offer; a new or resized pair
// is offered and waits for its Offload-ACK; ledger pairs the plan no
// longer contains — including every pair of an origin that stopped
// classifying busy — are released at the end of the round. The round then
// sends one redirect per pair in force to its busy node. Failed offers
// (declined, timed out, or cut by a disconnect) are re-offered to
// next-best candidates up to PlacementRetries times, re-solving the
// restricted problem with the failed destinations excluded.
//
// A round without an optimal plan leaves the ledger as it is. While the
// manager is degraded, every planned pair is offered and nothing is
// released; the offloads of an origin silent past StalenessHorizon are
// held rather than released.
func (m *Manager) RunPlacement() (report *PlacementReport, err error) {
	if m.IsFollower() {
		return nil, ErrFollower
	}
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	m.metrics.ticks.Inc()
	tickStart := time.Now()
	defer func() {
		m.metrics.tickSeconds.Observe(time.Since(tickStart).Seconds())
		if report != nil {
			m.metrics.recordReport(report)
		}
	}()

	state := m.nmdb.SnapshotState(m.cfg.Defaults)
	phaseStart := time.Now()
	cls, err := m.classify(state)
	m.metrics.observePhase("classify", time.Since(phaseStart))
	if err != nil {
		return nil, err
	}
	for i, role := range cls.Roles {
		m.nmdb.SetRole(i, role)
	}
	report = &PlacementReport{}
	rl := m.startRound()
	if len(cls.Busy) == 0 {
		m.finishRound(report, rl, cls)
		return report, nil
	}
	// The planner reuses route computations across rounds while the
	// topology's link rates are unchanged.
	res, err := m.planner.SolveClassified(state, cls)
	if err != nil {
		return nil, err
	}
	m.metrics.observePhase("route", res.RouteDuration)
	m.metrics.observePhase("solve", res.SolveDuration)
	if m.cfg.VerifyPlacements {
		if verr := verify.CheckResult(state, res, m.cfg.Params.Solver); verr != nil {
			m.metrics.verifications["failed"].Inc()
			return nil, fmt.Errorf("cluster: placement self-audit: %w", verr)
		}
		m.metrics.verifications["ok"].Inc()
	}
	report.Result = res
	if res.Status != core.StatusOptimal {
		return report, nil
	}

	dispatchStart := time.Now()
	defer func() {
		m.metrics.observePhase("dispatch", time.Since(dispatchStart))
	}()
	var offers []core.Assignment
	for _, a := range res.Assignments {
		key := pendingKey{busy: a.Busy, dest: a.Candidate}
		if old, ok := rl.start[key]; ok && !rl.degraded && samePair(old, a) {
			rl.final[key] = a
			report.Kept++
			continue
		}
		offers = append(offers, a)
	}
	// acceptedAt is what this round parks on each candidate; retries
	// shrink the candidates' spare capacity by it.
	excluded := make(map[int]bool)
	acceptedAt := make(map[int]float64)
	for _, a := range rl.final {
		acceptedAt[a.Candidate] += a.Amount
	}
	for attempt := 0; len(offers) > 0; attempt++ {
		m.countOffers(rl, offers)
		accepted, declined, timedOut := m.offerAssignments(offers)
		m.metrics.offers["accepted"].Add(uint64(len(accepted)))
		for _, a := range accepted {
			key := pendingKey{busy: a.Busy, dest: a.Candidate}
			acceptedAt[a.Candidate] += a.Amount - rl.final[key].Amount
			rl.final[key] = a
		}
		// A declined offer changed nothing at its destination: whatever the
		// pair had in force stays, and only the shortfall is re-offered. On
		// the first attempt that includes a declined resize of a ledger pair.
		var failed []core.Assignment
		for _, a := range declined {
			key := pendingKey{busy: a.Busy, dest: a.Candidate}
			cur, inForce := rl.final[key]
			if old, ok := rl.start[key]; !inForce && ok && attempt == 0 {
				cur, inForce = old, true
				rl.final[key] = old
				acceptedAt[a.Candidate] += old.Amount
			}
			if inForce {
				a.Amount -= cur.Amount
			}
			if a.Amount > 1e-9 {
				failed = append(failed, a)
			}
		}
		nDeclined := len(failed)
		// A timed-out offer may have been applied: the pair leaves the
		// round and is released at its end, and its whole amount is
		// re-offered.
		for _, a := range timedOut {
			key := pendingKey{busy: a.Busy, dest: a.Candidate}
			if cur, ok := rl.final[key]; ok {
				acceptedAt[a.Candidate] -= cur.Amount
				delete(rl.final, key)
			}
			rl.timedOut[key] = true
			failed = append(failed, a)
		}
		if len(failed) == 0 {
			break
		}
		if attempt >= m.cfg.PlacementRetries {
			report.Declined = append(report.Declined, failed[:nDeclined]...)
			report.TimedOut = append(report.TimedOut, failed[nDeclined:]...)
			break
		}
		for _, f := range failed {
			excluded[f.Candidate] = true
		}
		next, unplaced, err := m.resolveRetry(state, cls, failed, excluded, acceptedAt)
		if err != nil {
			m.finishRound(report, rl, cls)
			return report, err
		}
		report.Retried = append(report.Retried, failed...)
		report.Unplaced = append(report.Unplaced, unplaced...)
		// A retry onto a pair already in force this round offers the
		// pair's summed total.
		for i, a := range next {
			next[i].Amount += rl.final[pendingKey{busy: a.Busy, dest: a.Candidate}].Amount
		}
		offers = next
	}
	m.finishRound(report, rl, cls)
	return report, nil
}

// roundLedger is one placement round's view of the offload ledger.
type roundLedger struct {
	// start is the ledger as the round found it; final holds the pairs
	// the round leaves in force.
	start, final map[pendingKey]core.Assignment
	// timedOut marks pairs whose offer timed out: the destination may
	// have applied it, so unless the pair ends in force it is released.
	timedOut map[pendingKey]bool
	// degraded suspends keeping and releasing for the round.
	degraded bool
}

// startRound readies m.round for a new round: its maps are cleared, not
// regrown, so a steady round allocates no ledger. Called with tickMu held;
// the ledger is only valid until the next round starts.
func (m *Manager) startRound() *roundLedger {
	rl := &m.round
	if rl.start == nil {
		rl.start = make(map[pendingKey]core.Assignment)
		rl.final = make(map[pendingKey]core.Assignment)
		rl.timedOut = make(map[pendingKey]bool)
	}
	clear(rl.start)
	clear(rl.final)
	clear(rl.timedOut)
	rl.degraded = m.degradedNow(m.cfg.Now())
	m.nmdb.ledgerInto(rl.start)
	return rl
}

// samePair reports whether a ledger entry already is the planned pair:
// same amount and same route edges, compared exactly.
func samePair(old, a core.Assignment) bool {
	if old.Amount != a.Amount || len(old.Route.Edges) != len(a.Route.Edges) {
		return false
	}
	for i, e := range old.Route.Edges {
		if a.Route.Edges[i] != e {
			return false
		}
	}
	return true
}

// countOffers books each offer as a new pair or a resize of one the round
// found in the ledger or already holds in force.
func (m *Manager) countOffers(rl *roundLedger, offers []core.Assignment) {
	for _, a := range offers {
		key := pendingKey{busy: a.Busy, dest: a.Candidate}
		_, inLedger := rl.start[key]
		_, inForce := rl.final[key]
		if inLedger || inForce {
			m.metrics.pairs["resized"].Inc()
		} else {
			m.metrics.pairs["new"].Inc()
		}
	}
}

// finishRound ends a round: every pair in force goes into report.Accepted
// and gets its redirect, and the round-start ledger pairs that are no
// longer in force — plus timed-out offers — are released. Degraded rounds
// release nothing, and the pairs of origins silent past the staleness
// horizon are held.
func (m *Manager) finishRound(report *PlacementReport, rl *roundLedger, cls *core.Classification) {
	report.Accepted = make([]core.Assignment, 0, len(rl.final))
	for _, a := range rl.final {
		report.Accepted = append(report.Accepted, a)
	}
	sortPairs(report.Accepted)
	for _, a := range report.Accepted {
		m.sendRedirect(&m.tx, a)
	}

	var drop []core.Assignment
	now := m.cfg.Now()
	for key, old := range rl.start {
		if _, ok := rl.final[key]; ok {
			continue
		}
		busy := key.busy >= 0 && key.busy < len(cls.Roles) && cls.Roles[key.busy] == core.RoleBusy
		if !busy && m.silent(key.busy, now) {
			continue
		}
		drop = append(drop, old)
	}
	for key := range rl.timedOut {
		_, inForce := rl.final[key]
		_, inLedger := rl.start[key]
		if !inForce && !inLedger {
			drop = append(drop, core.Assignment{Busy: key.busy, Candidate: key.dest})
		}
	}
	if len(drop) == 0 {
		return
	}
	if rl.degraded {
		m.metrics.degradedDeferrals.Inc()
		return
	}
	sortPairs(drop)
	for _, a := range drop {
		if cur, ok := m.nmdb.ReleasePair(a.Busy, a.Candidate); ok {
			a = cur
		}
		report.Released = append(report.Released, a)
	}
	m.notifyReleased(&m.tx, report.Released)
}

func sortPairs(as []core.Assignment) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Busy != as[j].Busy {
			return as[i].Busy < as[j].Busy
		}
		return as[i].Candidate < as[j].Candidate
	})
}

// silent reports whether node's last report of any kind is past the
// staleness horizon. Classification holds such a node neutral, and a round
// does not release its offloads on data it does not have.
func (m *Manager) silent(node int, now time.Time) bool {
	if m.cfg.StalenessHorizon <= 0 {
		return false
	}
	_, _, lastReport, _ := m.nmdb.classifyMeta(node, m.cfg.Defaults)
	return now.Sub(lastReport) > m.cfg.StalenessHorizon
}

// offerAssignments sends Offload-Requests for the assignments and collects
// the Offload-ACK verdicts under one shared absolute deadline. Called with
// tickMu held: the requests are written in m.tx.
func (m *Manager) offerAssignments(assignments []core.Assignment) (accepted, declined, timedOut []core.Assignment) {
	type wait struct {
		a    core.Assignment
		done chan bool
	}
	var waits []wait
	for _, a := range assignments {
		conn, ok := m.connFor(a.Candidate)
		if !ok {
			timedOut = append(timedOut, a)
			continue
		}
		done := make(chan bool, 1)
		m.mu.Lock()
		m.pending[pendingKey{busy: a.Busy, dest: a.Candidate}] = &pendingOffload{assignment: a, done: done}
		m.mu.Unlock()
		f := &m.tx
		msg := m.offloadRequest(f, a.Candidate, a.Busy, a.Amount, f.wireRoute(a, m.nmdb.Topology()))
		if err := conn.Send(msg); err != nil {
			m.mu.Lock()
			delete(m.pending, pendingKey{busy: a.Busy, dest: a.Candidate})
			m.mu.Unlock()
			timedOut = append(timedOut, a)
			continue
		}
		waits = append(waits, wait{a: a, done: done})
	}

	// One absolute deadline covers the batch; each wait arms a fresh timer
	// against it. A single shared timer would fire (and drain) once, after
	// which every later wait would block on a dead channel forever. The
	// deadline lives on the injected clock so virtual-time tests control
	// offer expiry; each timer arms with the remaining budget re-read from
	// that clock.
	deadline := m.cfg.Now().Add(m.cfg.AckTimeout)
	for _, w := range waits {
		timer := time.NewTimer(deadline.Sub(m.cfg.Now()))
		select {
		case ok := <-w.done:
			timer.Stop()
			if ok {
				accepted = append(accepted, w.a)
			} else {
				declined = append(declined, w.a)
			}
		case <-timer.C:
			key := pendingKey{busy: w.a.Busy, dest: w.a.Candidate}
			m.mu.Lock()
			_, still := m.pending[key]
			if still {
				delete(m.pending, key)
			}
			m.mu.Unlock()
			if !still {
				// The ACK raced the deadline: handle() already removed the
				// pending entry and is committing its verdict. Honor it —
				// treating an accepted (ledger-recorded) assignment as
				// timed out would double-place its excess on retry.
				if ok := <-w.done; ok {
					accepted = append(accepted, w.a)
				} else {
					declined = append(declined, w.a)
				}
				continue
			}
			timedOut = append(timedOut, w.a)
		}
	}
	return accepted, declined, timedOut
}

// resolveRetry re-solves the placement for the excess its failed busy
// nodes still need to shed, restricting candidates to those not excluded
// and shrinking their spare capacity by what this placement already
// parked on them — Algorithm 1's candidate restriction applied to the
// retry. Failed assignments whose busy node no remaining candidate can
// cover come back as unplaced.
func (m *Manager) resolveRetry(state *core.State, cls *core.Classification, failed []core.Assignment, excluded map[int]bool, acceptedAt map[int]float64) (next, unplaced []core.Assignment, err error) {
	need := make(map[int]float64)
	byBusy := make(map[int][]core.Assignment)
	var busyOrder []int
	for _, f := range failed {
		if _, seen := need[f.Busy]; !seen {
			busyOrder = append(busyOrder, f.Busy)
		}
		need[f.Busy] += f.Amount
		byBusy[f.Busy] = append(byBusy[f.Busy], f)
	}
	sort.Ints(busyOrder)

	var cands []int
	var cd []float64
	for j, cand := range cls.Candidates {
		if excluded[cand] {
			continue
		}
		if spare := cls.Cd[j] - acceptedAt[cand]; spare > 1e-9 {
			cands = append(cands, cand)
			cd = append(cd, spare)
		}
	}
	if len(cands) == 0 {
		return nil, failed, nil
	}

	sub := &core.Classification{
		Roles: cls.Roles, Candidates: cands, Cd: cd,
	}
	for _, b := range busyOrder {
		sub.Busy = append(sub.Busy, b)
		sub.Cs = append(sub.Cs, need[b])
	}
	res, err := core.SolveClassified(state, sub, m.cfg.Params)
	if err != nil {
		return nil, nil, err
	}
	if res.Status == core.StatusOptimal {
		return res.Assignments, nil, nil
	}

	// The combined retry is infeasible: place busy nodes greedily one at a
	// time so partial coverage still happens, and report the rest unplaced.
	for _, b := range busyOrder {
		var oneCands []int
		var oneCd []float64
		for j, cand := range cands {
			if cd[j] > 1e-9 {
				oneCands = append(oneCands, cand)
				oneCd = append(oneCd, cd[j])
			}
		}
		if len(oneCands) == 0 {
			unplaced = append(unplaced, byBusy[b]...)
			continue
		}
		one := &core.Classification{
			Roles: cls.Roles, Busy: []int{b}, Cs: []float64{need[b]},
			Candidates: oneCands, Cd: oneCd,
		}
		r1, err := core.SolveClassified(state, one, m.cfg.Params)
		if err != nil || r1.Status != core.StatusOptimal {
			unplaced = append(unplaced, byBusy[b]...)
			continue
		}
		next = append(next, r1.Assignments...)
		for _, a := range r1.Assignments {
			for j, cand := range cands {
				if cand == a.Candidate {
					cd[j] -= a.Amount
				}
			}
		}
	}
	return next, unplaced, nil
}

// classify builds the role split honoring per-client threshold overrides
// and, when a StalenessHorizon is configured, the bounded-staleness
// contract of sampled reporting (DESIGN.md §16): a record whose sample is
// stale but whose report age is fresh holds its previous verdict (the
// client's heartbeats assert the values are unchanged within its
// deadbands), and a record past the horizon classifies neutral — the
// manager does not act on data from a node it has not heard from.
func (m *Manager) classify(state *core.State) (*core.Classification, error) {
	if err := state.Validate(); err != nil {
		return nil, err
	}
	now := m.cfg.Now()
	horizon := m.cfg.StalenessHorizon
	n := state.G.NumNodes()
	cls := &core.Classification{Roles: make([]core.Role, n)}
	for i := 0; i < n; i++ {
		if !state.Offloadable[i] {
			cls.Roles[i] = core.RoleNone
			continue
		}
		t, lastStat, lastReport, prevRole := m.nmdb.classifyMeta(i, m.cfg.Defaults)
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d thresholds: %w", i, err)
		}
		if horizon > 0 && now.Sub(lastStat) > horizon {
			if now.Sub(lastReport) > horizon {
				cls.Roles[i] = core.RoleNeutral
				continue
			}
			// Hold the previous verdict where the stored sample still
			// supports it; a verdict the sample contradicts (e.g. a
			// re-registration changed thresholds mid-silence) falls through
			// to re-derivation, as does a node never classified before.
			held := true
			switch {
			case prevRole == core.RoleBusy && state.Util[i]-t.CMax > 0:
				cls.Roles[i] = core.RoleBusy
				cls.Busy = append(cls.Busy, i)
				cls.Cs = append(cls.Cs, state.Util[i]-t.CMax)
			case prevRole == core.RoleCandidate && t.COMax-state.Util[i] > 0:
				cls.Roles[i] = core.RoleCandidate
				cls.Candidates = append(cls.Candidates, i)
				cls.Cd = append(cls.Cd, t.COMax-state.Util[i])
			case prevRole == core.RoleNeutral:
				cls.Roles[i] = core.RoleNeutral
			default:
				held = false
			}
			if held {
				continue
			}
		}
		switch {
		case state.Util[i] >= t.CMax:
			cls.Roles[i] = core.RoleBusy
			cls.Busy = append(cls.Busy, i)
			cls.Cs = append(cls.Cs, state.Util[i]-t.CMax)
		case state.Util[i] <= t.COMax:
			cls.Roles[i] = core.RoleCandidate
			cls.Candidates = append(cls.Candidates, i)
			cls.Cd = append(cls.Cd, t.COMax-state.Util[i])
		default:
			cls.Roles[i] = core.RoleNeutral
		}
	}
	return cls, nil
}

// Substitution records one replica replacement after a destination failure.
type Substitution struct {
	Failed   int
	Busy     int
	Replica  int
	Amount   float64
	Notified bool
}

// CheckKeepalives implements the post-offloading failure handling of
// Section III-C: destinations whose keepalive is older than the timeout
// are declared failed; their hosted workloads are re-placed on replica
// nodes, which are notified with REP messages, and the busy nodes told to
// redirect.
func (m *Manager) CheckKeepalives() ([]Substitution, error) {
	now := m.cfg.Now()
	if m.degradedNow(now) {
		// Restored keepalive timestamps predate the outage; evicting on
		// them would declare every destination failed at once. Defer until
		// clients resync or the grace window expires.
		m.metrics.degradedDeferrals.Inc()
		return nil, nil
	}
	var subs []Substitution
	for _, dest := range m.nmdb.Destinations() {
		rec, ok := m.nmdb.Client(dest)
		if !ok {
			continue
		}
		if now.Sub(rec.LastKeepalive) <= m.cfg.KeepaliveTimeout {
			continue
		}
		subs = append(subs, m.substituteDest(dest)...)
	}
	m.resyncPairs(now)
	return subs, nil
}

// resyncPairs is the manager→client direction of anti-entropy: a ledger
// pair whose destination actively declares its hosting (recent Host-Syncs
// of other pairs) but has not declared this pair within the keepalive
// timeout never learned of it — its REP or request was lost while the
// client stayed alive on its other workloads. Re-send the REP (FailedNode
// -1: no destination actually failed) so the client starts hosting and
// declaring the pair. Clients that never Host-Sync are left alone: if they
// lose a REP they also never beacon, and the substitution sweep covers
// them.
func (m *Manager) resyncPairs(now time.Time) {
	totals := make(map[pendingKey]float64)
	for _, a := range m.nmdb.ActiveAssignments() {
		totals[pendingKey{busy: a.Busy, dest: a.Candidate}] += a.Amount
	}
	for pair, amount := range totals {
		m.mu.Lock()
		lastPair := m.pairSync[pair]
		lastDecl := m.destSync[pair.dest]
		m.mu.Unlock()
		if now.Sub(lastDecl) > m.cfg.KeepaliveTimeout ||
			now.Sub(lastPair) <= m.cfg.KeepaliveTimeout {
			continue
		}
		conn, ok := m.connFor(pair.dest)
		if !ok {
			continue
		}
		_ = conn.Send(&proto.Message{
			Type: proto.MsgRep, From: ManagerNode,
			To: int32(pair.dest), Seq: m.nextSeq(),
			BusyNode: int32(pair.busy), AmountPct: amount,
			FailedNode: -1,
		})
		m.metrics.resyncReps.Inc()
		m.touchPair(pair.busy, pair.dest, now)
	}
}

// substituteDest declares dest failed, releases its hosted workloads from
// the ledger, and re-places each on a replica node (notified with a REP
// message; the busy node is told to redirect). Reached from the keepalive
// sweep and directly from serveConn on an abrupt disconnect.
func (m *Manager) substituteDest(dest int) []Substitution {
	if m.degradedNow(m.cfg.Now()) {
		m.metrics.degradedDeferrals.Inc()
		return nil
	}
	displaced := m.nmdb.ReleaseDestination(dest)
	if len(displaced) == 0 {
		return nil
	}
	now := m.cfg.Now()
	m.mu.Lock()
	for _, a := range displaced {
		delete(m.pairSync, pendingKey{busy: a.Busy, dest: a.Candidate})
	}
	m.mu.Unlock()
	state := m.nmdb.BuildState(m.cfg.Defaults)
	var subs []Substitution
	// Substitution runs outside tickMu, so it writes its redirects in a
	// frame of its own.
	var f outFrame
	for _, a := range displaced {
		replica, rt, found := m.pickReplica(state, a, dest)
		sub := Substitution{Failed: dest, Busy: a.Busy, Amount: a.Amount, Replica: replica}
		if found {
			// Amounts are absolute per pair: a replica that already hosts
			// for this origin takes the displaced share on top of it.
			na := core.Assignment{
				Busy: a.Busy, Candidate: replica,
				Amount: a.Amount, ResponseTimeSec: rt,
			}
			if cur, ok := m.nmdb.Pair(a.Busy, replica); ok {
				na.Amount += cur.Amount
			}
			m.nmdb.RecordOffload([]core.Assignment{na})
			m.touchPair(a.Busy, replica, now)
			if conn, ok := m.connFor(replica); ok {
				err := conn.Send(&proto.Message{
					Type: proto.MsgRep, From: ManagerNode,
					To: int32(replica), Seq: m.nextSeq(),
					BusyNode:   int32(a.Busy),
					AmountPct:  na.Amount,
					FailedNode: int32(dest),
				})
				sub.Notified = err == nil
			}
			m.sendRedirect(&f, na)
		} else {
			sub.Replica = -1
		}
		m.metrics.substitutions.Inc()
		subs = append(subs, sub)
	}
	return subs
}

// pickReplica finds the cheapest reachable candidate (excluding the failed
// destination) with enough spare capacity for the displaced amount.
func (m *Manager) pickReplica(state *core.State, a core.Assignment, failed int) (int, float64, bool) {
	cls, err := m.classify(state)
	if err != nil {
		return -1, 0, false
	}
	// Subtract already-recorded hosting from candidate spare capacity: a
	// STAT reports the node's own demand, not what it hosts for others.
	spare := make(map[int]float64)
	for j, cand := range cls.Candidates {
		spare[cand] = cls.Cd[j]
	}
	for _, act := range m.nmdb.ActiveAssignments() {
		if _, ok := spare[act.Candidate]; ok {
			spare[act.Candidate] -= act.Amount
		}
	}
	// Replica selection always uses the polynomial DP (one-off scan, no
	// table reuse); the Parallelism knob still applies.
	rp := m.cfg.Params
	rp.PathStrategy = core.PathDP
	rt, err := core.ComputeRoutes(state, cls, rp)
	if err != nil {
		return -1, 0, false
	}
	bi := -1
	for i, b := range cls.Busy {
		if b == a.Busy {
			bi = i
			break
		}
	}
	if bi < 0 {
		// The origin may no longer classify busy (its demand fell since
		// the round that placed it); fall back to a direct route scan.
		return m.pickReplicaDirect(state, a, failed, spare)
	}
	best, bestSec := -1, math.Inf(1)
	for cj, cand := range cls.Candidates {
		if cand == failed || spare[cand] < a.Amount-1e-9 {
			continue
		}
		if sec := rt.Seconds[bi][cj]; sec < bestSec {
			best, bestSec = cand, sec
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestSec, true
}

// pickReplicaDirect scans candidates by hop-bounded response time from the
// busy node without requiring it to classify busy.
func (m *Manager) pickReplicaDirect(state *core.State, a core.Assignment, failed int, spare map[int]float64) (int, float64, bool) {
	var sc graph.DPScratch
	dist, _ := sc.ShortestPaths(state.G, a.Busy, m.cfg.Params.MaxHops, m.cfg.Params.CostVector(state.G))
	best, bestSec := -1, math.Inf(1)
	for cand, sp := range spare {
		if cand == failed || sp < a.Amount-1e-9 {
			continue
		}
		sec := state.DataMb[a.Busy] * dist[cand]
		if sec < bestSec {
			best, bestSec = cand, sec
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestSec, true
}

// ReclaimBusy releases every assignment originating at busy at once,
// telling each destination to drop the hosted workload. Placement rounds
// already release the pairs of an origin that stopped classifying busy;
// ReclaimBusy is for an embedder that must withdraw an origin's offloads
// between rounds.
func (m *Manager) ReclaimBusy(busy int) []core.Assignment {
	if m.degradedNow(m.cfg.Now()) {
		m.metrics.degradedDeferrals.Inc()
		return nil
	}
	released := m.nmdb.ReleaseBusy(busy)
	m.metrics.reclaims.Add(uint64(len(released)))
	m.notifyReleased(new(outFrame), released)
	return released
}

// notifyReleased forgets the released pairs' sync stamps and tells each
// destination, from frame f, to drop the hosted workload (an
// Offload-Request with AmountPct 0 is the release instruction).
func (m *Manager) notifyReleased(f *outFrame, released []core.Assignment) {
	m.mu.Lock()
	for _, a := range released {
		delete(m.pairSync, pendingKey{busy: a.Busy, dest: a.Candidate})
	}
	m.mu.Unlock()
	for _, a := range released {
		if conn, ok := m.connFor(a.Candidate); ok {
			_ = conn.Send(m.offloadRequest(f, a.Candidate, a.Busy, 0, nil))
		}
	}
}
