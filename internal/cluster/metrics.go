package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// managerMetrics is the Manager's instrumentation: tick phase timings,
// offer verdicts, retry/substitution churn, Host-Sync reconciliation,
// and pull-style gauges over the NMDB and the planner's route cache.
// Counters and histograms are resolved once at manager construction so
// the tick path pays only atomic adds and one short mutex per histogram
// observation; the gauges cost nothing until a scrape evaluates them.
//
// Phase durations are measured on the monotonic wall clock (time.Since),
// not the injected cfg.Now: the virtual clock drives protocol deadlines,
// while these histograms measure how long the code actually ran.
type managerMetrics struct {
	ticks        *obs.Counter
	tickSeconds  *obs.Histogram
	phaseSeconds map[string]*obs.Histogram // classify, route, solve, dispatch

	offers        map[string]*obs.Counter // verdict: accepted, declined, timed_out
	pairs         map[string]*obs.Counter // change: new, resized, kept, released
	verifications map[string]*obs.Counter // result: ok, failed (VerifyPlacements audits)
	retried       *obs.Counter
	unplaced      *obs.Counter
	abandoned     *obs.Counter
	substitutions *obs.Counter
	resyncReps    *obs.Counter
	reclaims      *obs.Counter
	hostSync      map[string]*obs.Counter // result: synced, stale, adopted
	handshakes    map[string]*obs.Counter // result: ok, rejected
	disconnects   *obs.Counter
	statBatches   *obs.Counter
	statsIngested *obs.Counter
	// Sampled-reporting ingest (DESIGN.md §16): heartbeat frames refresh
	// report age without fresh data; suppressed counts arrive on every
	// frame and tally the intervals clients deliberately skipped.
	statHeartbeats  *obs.Counter
	statsSuppressed *obs.Counter
	// statGapLoss counts frames inferred lost from per-sender sequence
	// gaps — the involuntary counterpart to the deliberate suppression
	// above. The per-client split lives in the NMDB records
	// (ClientRecord.StatSuppressed / StatGapLoss).
	statGapLoss *obs.Counter

	// Telemetry data plane: MsgTelemetryBatch frames relayed into the
	// databus (see ManagerConfig.Databus).
	telemetryFrames  map[string]*obs.Counter // result: published, decode_error, no_bus
	telemetrySamples *obs.Counter

	// Active measurement plane: client-to-client probe frames relayed by
	// the manager and probe reports folded into the MeasuredCosts overlay.
	probeRelays  map[string]*obs.Counter // result: ok, dropped
	probeReports *obs.Counter
	probeSamples map[string]*obs.Counter // result: mapped, unmapped, expired

	// High-availability instrumentation: durable checkpoints, standby
	// replication, promotion, and degraded-mode (grace window) activity.
	checkpointWrites  map[string]*obs.Counter // result: ok, failed
	checkpointLoads   map[string]*obs.Counter // result: ok, missing, error
	promotions        *obs.Counter
	degradedEvents    map[string]*obs.Counter // event: entered, exited_quorum, exited_expired
	degradedDeferrals *obs.Counter
	replicasAttached  *obs.Counter
	replicasDropped   *obs.Counter
	replSnapshots     *obs.Counter
	replHeartbeats    *obs.Counter

	conn *proto.ConnMetrics
}

func newManagerMetrics(reg *obs.Registry) *managerMetrics {
	mm := &managerMetrics{
		ticks: reg.Counter("dust_manager_ticks_total",
			"placement rounds started (RunPlacement calls)"),
		tickSeconds: reg.Histogram("dust_manager_tick_seconds",
			"end-to-end placement round duration", nil),
		phaseSeconds:  make(map[string]*obs.Histogram),
		offers:        make(map[string]*obs.Counter),
		pairs:         make(map[string]*obs.Counter),
		verifications: make(map[string]*obs.Counter),
		retried: reg.Counter("dust_manager_placement_retries_total",
			"failed offers re-offered to next-best candidates"),
		unplaced: reg.Counter("dust_manager_placement_unplaced_total",
			"failed offers no remaining candidate could host"),
		abandoned: reg.Counter("dust_manager_placement_abandoned_total",
			"assignments that ended a round without a hosting destination"),
		substitutions: reg.Counter("dust_manager_substitutions_total",
			"failed-destination workloads re-placed on replicas"),
		resyncReps: reg.Counter("dust_manager_resync_reps_total",
			"REP messages re-sent by the anti-entropy pair sweep"),
		reclaims: reg.Counter("dust_manager_reclaims_total",
			"assignments released because their busy origin recovered"),
		hostSync:   make(map[string]*obs.Counter),
		handshakes: make(map[string]*obs.Counter),
		disconnects: reg.Counter("dust_manager_client_disconnects_total",
			"abrupt client disconnects treated as keepalive failures"),
		statBatches: reg.Counter("dust_manager_stat_batches_total",
			"batched RecordStats calls (coalesced STAT runs)"),
		statsIngested: reg.Counter("dust_manager_stats_ingested_total",
			"STAT reports applied to the NMDB"),
		statHeartbeats: reg.Counter("dust_manager_stat_heartbeats_total",
			"max-silence heartbeat STATs received (report age refreshed, no fresh data)"),
		statsSuppressed: reg.Counter("dust_manager_stats_suppressed_total",
			"reporting intervals clients suppressed, as declared on received frames"),
		statGapLoss: reg.Counter("dust_manager_stat_gap_loss_total",
			"frames inferred lost from per-sender sequence gaps"),
		telemetryFrames: make(map[string]*obs.Counter),
		telemetrySamples: reg.Counter("dust_manager_telemetry_samples_total",
			"samples decoded from telemetry-batch frames and republished"),
		probeRelays: make(map[string]*obs.Counter),
		probeReports: reg.Counter("dust_manager_probe_reports_total",
			"probe measurement reports received from clients"),
		probeSamples:     make(map[string]*obs.Counter),
		checkpointWrites: make(map[string]*obs.Counter),
		checkpointLoads:  make(map[string]*obs.Counter),
		promotions: reg.Counter("dust_manager_promotions_total",
			"standby-to-active promotions"),
		degradedEvents: make(map[string]*obs.Counter),
		degradedDeferrals: reg.Counter("dust_manager_degraded_deferrals_total",
			"evictions/reclaims/substitutions deferred by the grace window"),
		replicasAttached: reg.Counter("dust_manager_replicas_attached_total",
			"standby replication links accepted"),
		replicasDropped: reg.Counter("dust_manager_replicas_dropped_total",
			"standby replication links lost"),
		replSnapshots: reg.Counter("dust_manager_repl_snapshots_total",
			"full snapshots shipped to standbys"),
		replHeartbeats: reg.Counter("dust_manager_repl_heartbeats_total",
			"replication heartbeats sent (state unchanged)"),
		conn: proto.NewConnMetrics(reg, "manager"),
	}
	for _, phase := range []string{"classify", "route", "solve", "dispatch"} {
		mm.phaseSeconds[phase] = reg.Histogram("dust_manager_tick_phase_seconds",
			"placement round phase duration", nil, "phase", phase)
	}
	for _, verdict := range []string{"accepted", "declined", "timed_out"} {
		mm.offers[verdict] = reg.Counter("dust_manager_offers_total",
			"offered assignments by final Offload-ACK verdict", "verdict", verdict)
	}
	for _, change := range []string{"new", "resized", "kept", "released"} {
		mm.pairs[change] = reg.Counter("dust_manager_pairs_total",
			"busy→dest pairs per placement round by what the round did with them", "change", change)
	}
	for _, result := range []string{"ok", "failed"} {
		mm.verifications[result] = reg.Counter("dust_manager_placement_verifications_total",
			"VerifyPlacements self-audits of solver results by outcome", "result", result)
	}
	for _, result := range []string{"synced", "stale", "adopted"} {
		mm.hostSync[result] = reg.Counter("dust_manager_hostsync_total",
			"Host-Sync declarations by reconciliation outcome", "result", result)
	}
	for _, result := range []string{"ok", "rejected"} {
		mm.handshakes[result] = reg.Counter("dust_manager_handshakes_total",
			"registration handshakes by outcome", "result", result)
	}
	for _, result := range []string{"ok", "failed"} {
		mm.checkpointWrites[result] = reg.Counter("dust_manager_checkpoint_writes_total",
			"durable checkpoint writes by outcome", "result", result)
	}
	for _, result := range []string{"ok", "missing", "error"} {
		mm.checkpointLoads[result] = reg.Counter("dust_manager_checkpoint_loads_total",
			"checkpoint restore attempts at startup by outcome", "result", result)
	}
	for _, event := range []string{"entered", "exited_quorum", "exited_expired"} {
		mm.degradedEvents[event] = reg.Counter("dust_manager_degraded_transitions_total",
			"degraded-mode (grace window) transitions", "event", event)
	}
	for _, result := range []string{"published", "decode_error", "no_bus"} {
		mm.telemetryFrames[result] = reg.Counter("dust_manager_telemetry_frames_total",
			"telemetry-batch frames received by outcome", "result", result)
	}
	for _, result := range []string{"ok", "dropped"} {
		mm.probeRelays[result] = reg.Counter("dust_manager_probe_relays_total",
			"client-to-client probe frames relayed by outcome", "result", result)
	}
	for _, result := range []string{"mapped", "unmapped", "expired"} {
		mm.probeSamples[result] = reg.Counter("dust_manager_probe_samples_total",
			"probe report samples by edge-mapping outcome", "result", result)
	}
	return mm
}

// bindHAGauges registers the pull-style gauges over the manager's
// high-availability state: standby links, replication lag, and whether
// the grace window is in force. Reading the degraded gauge evaluates the
// exit conditions, so a scrape also advances the state machine.
func (mm *managerMetrics) bindHAGauges(reg *obs.Registry, m *Manager) {
	reg.GaugeFunc("dust_manager_replicas_connected",
		"standby replication links currently attached", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.replicas))
		})
	reg.GaugeFunc("dust_manager_replication_lag_epochs",
		"worst shipped-minus-acked snapshot epoch gap across standbys", func() float64 {
			return float64(m.replicationLag())
		})
	reg.GaugeFunc("dust_manager_degraded",
		"1 while the post-restore/promotion grace window defers evictions", func() float64 {
			if m.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dust_manager_follower",
		"1 while the manager is an unpromoted standby", func() float64 {
			if m.IsFollower() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dust_manager_resynced_clients",
		"clients re-handshaked since entering the grace window", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.resynced))
		})
}

// bindGauges registers the pull-style gauges over live manager state.
// Called once the NMDB and planner exist; re-binding (a second manager
// sharing a registry) replaces the previous functions, last wins.
func (mm *managerMetrics) bindGauges(reg *obs.Registry, db *NMDB, planner *core.Planner) {
	reg.GaugeFunc("dust_route_cache_hits",
		"route-cache row lookups served from cache", func() float64 {
			return float64(planner.Cache().Stats().Hits)
		})
	reg.GaugeFunc("dust_route_cache_misses",
		"route-cache row lookups that recomputed", func() float64 {
			return float64(planner.Cache().Stats().Misses)
		})
	reg.GaugeFunc("dust_route_cache_evictions",
		"route-cache rows dropped by targeted invalidation", func() float64 {
			return float64(planner.Cache().Stats().Evicted)
		})
	reg.GaugeFunc("dust_route_rows_repaired_total",
		"evicted route-cache rows rebuilt by repair instead of recomputation", func() float64 {
			return float64(planner.Cache().Stats().Repaired)
		})
	reg.GaugeFunc("dust_route_cache_flushes",
		"route-cache whole-cache resets", func() float64 {
			return float64(planner.Cache().Stats().Flushes)
		})
	reg.GaugeFunc("dust_nmdb_clients",
		"registered clients in the NMDB", func() float64 {
			return float64(len(db.Nodes()))
		})
	reg.GaugeFunc("dust_nmdb_active_assignments",
		"assignments in the active offload ledger", func() float64 {
			return float64(db.ActiveCount())
		})
	reg.GaugeFunc("dust_nmdb_destinations",
		"nodes currently hosting offloaded workloads", func() float64 {
			return float64(len(db.Destinations()))
		})
	reg.GaugeFunc("dust_nmdb_shards",
		"client-registry lock stripes", func() float64 {
			return float64(db.Stats().Shards)
		})
	reg.GaugeFunc("dust_nmdb_snapshot_shards_reused",
		"tick-snapshot shards copied from the previous tick", func() float64 {
			return float64(db.Stats().SnapshotShardsReused)
		})
	reg.GaugeFunc("dust_nmdb_snapshot_shards_rebuilt",
		"tick-snapshot shards re-read from client records", func() float64 {
			return float64(db.Stats().SnapshotShardsRebuilt)
		})
}

// observePhase records one phase duration.
func (mm *managerMetrics) observePhase(phase string, d time.Duration) {
	mm.phaseSeconds[phase].Observe(d.Seconds())
}

// recordReport folds a finished placement round into the offer and pair
// counters. Accepted offers are counted as their ACKs arrive: r.Accepted
// also lists pairs the round kept without an offer.
func (mm *managerMetrics) recordReport(r *PlacementReport) {
	mm.pairs["kept"].Add(uint64(r.Kept))
	mm.pairs["released"].Add(uint64(len(r.Released)))
	mm.offers["declined"].Add(uint64(len(r.Declined)))
	mm.offers["timed_out"].Add(uint64(len(r.TimedOut)))
	mm.retried.Add(uint64(len(r.Retried)))
	mm.unplaced.Add(uint64(len(r.Unplaced)))
	mm.abandoned.Add(uint64(r.Abandoned()))
}

// clientMetrics is the DUST-Client's instrumentation: reconnect attempts
// and outcomes, supervised sessions, and Host-Sync declarations. Many
// clients sharing one registry aggregate into the same series.
type clientMetrics struct {
	sessions     *obs.Counter
	reconnects   map[string]*obs.Counter // result: ok, fail
	failovers    *obs.Counter
	abandons     *obs.Counter
	hostSyncs    *obs.Counter
	probesSent   *obs.Counter
	probesRefl   *obs.Counter
	probeReports *obs.Counter
	// Reporting-policy outcomes (DESIGN.md §16), one per STAT interval.
	statsSent       *obs.Counter
	statsSuppressed *obs.Counter
	statHeartbeats  *obs.Counter
	conn            *proto.ConnMetrics
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	cm := &clientMetrics{
		sessions: reg.Counter("dust_client_sessions_total",
			"supervised connection sessions started"),
		reconnects: make(map[string]*obs.Counter),
		failovers: reg.Counter("dust_client_failovers_total",
			"reconnects that landed on a different manager than before"),
		abandons: reg.Counter("dust_client_reconnect_abandoned_total",
			"supervision loops that gave up after MaxReconnectAttempts"),
		hostSyncs: reg.Counter("dust_client_hostsync_sent_total",
			"Host-Sync declarations sent"),
		probesSent: reg.Counter("dust_client_probes_sent_total",
			"active measurement probes sent toward peers"),
		probesRefl: reg.Counter("dust_client_probes_reflected_total",
			"peer probes reflected back with TWAMP timestamps"),
		probeReports: reg.Counter("dust_client_probe_reports_sent_total",
			"probe measurement reports sent to the manager"),
		statsSent: reg.Counter("dust_client_stats_sent_total",
			"full STAT reports sent"),
		statsSuppressed: reg.Counter("dust_client_stats_suppressed_total",
			"STAT intervals suppressed by the reporting policy"),
		statHeartbeats: reg.Counter("dust_client_stat_heartbeats_total",
			"max-silence heartbeat STATs sent"),
		conn: proto.NewConnMetrics(reg, "client"),
	}
	for _, result := range []string{"ok", "fail"} {
		cm.reconnects[result] = reg.Counter("dust_client_reconnect_attempts_total",
			"reconnect attempts by outcome", "result", result)
	}
	return cm
}
