package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
)

// StandbyConfig configures the replication receiver that keeps a follower
// manager warm.
type StandbyConfig struct {
	// Manager is the follower-mode manager being fed (its NMDB is
	// overwritten by each applied snapshot). Must have been constructed
	// with Follower: true.
	Manager *Manager
	// Dial opens the replication connection to the primary; required.
	Dial func() (proto.Conn, error)
	// PromoteAfter is the missed-heartbeat watchdog: when no replication
	// message (snapshot or heartbeat) has arrived for this long, the
	// standby promotes its manager. 0 means 10 seconds; negative disables
	// automatic promotion (only Promote() promotes).
	PromoteAfter time.Duration
	// ReconnectMin and ReconnectMax bound the redial backoff toward the
	// primary (defaults 50ms and 2s, full jitter like the client's).
	ReconnectMin, ReconnectMax time.Duration
	// Logf, when set, receives replication and promotion diagnostics.
	Logf func(format string, args ...any)
	// Now injects a clock for the watchdog; nil means time.Now.
	Now func() time.Time
}

// Standby streams checkpoints from a primary manager into a follower
// manager so a promotion starts from near-current state. It implements
// the warm-standby half of the HA design: the primary pushes a full
// checksummed snapshot whenever its state version moved (heartbeats
// otherwise), the standby applies each to its follower NMDB, persists it
// when the follower has a checkpoint path, and acknowledges the epoch so
// the primary can report replication lag. Promotion — manual or via the
// missed-heartbeat watchdog — flips the follower live and ends Run.
type Standby struct {
	cfg     StandbyConfig
	m       *Manager
	metrics *standbyMetrics

	mu       sync.Mutex
	lastMsg  time.Time
	epoch    uint64 // last applied snapshot epoch
	promoted bool
	// promotedCh closes on promotion, unblocking backoff sleeps and the
	// connection-closer goroutines.
	promotedCh chan struct{}
}

// NewStandby wraps a follower manager in a replication receiver.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Manager == nil {
		return nil, errors.New("cluster: standby needs a manager")
	}
	if !cfg.Manager.IsFollower() {
		return nil, errors.New("cluster: standby manager must be constructed with Follower: true")
	}
	if cfg.Dial == nil {
		return nil, errors.New("cluster: standby needs a Dial function")
	}
	if cfg.PromoteAfter == 0 {
		cfg.PromoteAfter = 10 * time.Second
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = 2 * time.Second
		if cfg.ReconnectMax < cfg.ReconnectMin {
			cfg.ReconnectMax = cfg.ReconnectMin
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Standby{
		cfg:        cfg,
		m:          cfg.Manager,
		promotedCh: make(chan struct{}),
		// The watchdog clock starts at construction: a primary that never
		// answers at all still triggers promotion after PromoteAfter.
		lastMsg: cfg.Now(),
	}
	s.metrics = newStandbyMetrics(cfg.Manager.Metrics(), s)
	return s, nil
}

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Promoted reports whether the standby's manager has been promoted.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Epoch returns the last applied snapshot epoch.
func (s *Standby) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Promote flips the follower manager live immediately (the manual
// failover path; the watchdog is the automatic one). Idempotent.
func (s *Standby) Promote() { s.promote("manual") }

func (s *Standby) promote(reason string) {
	s.mu.Lock()
	if s.promoted {
		s.mu.Unlock()
		return
	}
	s.promoted = true
	close(s.promotedCh)
	s.mu.Unlock()
	s.logf("standby: promoting manager (%s)", reason)
	s.m.Promote()
}

func (s *Standby) touch() {
	s.mu.Lock()
	s.lastMsg = s.cfg.Now()
	s.mu.Unlock()
}

func (s *Standby) lastMsgTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastMsg
}

// Run drives the standby until promotion or ctx cancellation: it dials
// the primary with jittered backoff, introduces itself with MsgReplHello,
// and applies the snapshot stream. Run returns nil once the manager is
// promoted (by the watchdog or Promote).
func (s *Standby) Run(ctx context.Context) error {
	if s.cfg.PromoteAfter > 0 {
		done := make(chan struct{})
		defer close(done)
		go s.watchdog(ctx, done)
	}
	delay := s.cfg.ReconnectMin
	for {
		if s.Promoted() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := s.cfg.Dial()
		if err == nil {
			hadSession := false
			hadSession, err = s.feed(ctx, conn)
			conn.Close()
			if s.Promoted() {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			s.logf("standby: replication link lost: %v", err)
			if hadSession {
				delay = s.cfg.ReconnectMin
			}
		} else {
			s.logf("standby: dial primary failed: %v", err)
		}
		// Back off after any failure — a dead primary answers dials with
		// immediately-failing connections, which must not turn into a hot
		// redial loop while the watchdog counts down.
		sleep := time.Duration(rand.Int63n(int64(delay) + 1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.promotedCh:
			return nil
		case <-time.After(sleep):
		}
		delay *= 2
		if delay > s.cfg.ReconnectMax {
			delay = s.cfg.ReconnectMax
		}
	}
}

// feed runs one replication session: hello, ack, then the snapshot loop.
// The bool reports whether the handshake completed (a real session, which
// resets the caller's backoff) as opposed to an immediate rejection.
func (s *Standby) feed(ctx context.Context, conn proto.Conn) (bool, error) {
	// Close the connection when promotion or cancellation happens so the
	// blocking Recv below unwinds.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
		case <-s.promotedCh:
		case <-stop:
		}
		conn.Close()
	}()

	err := conn.Send(&proto.Message{
		Type: proto.MsgReplHello, From: StandbyNode, To: ManagerNode,
	})
	if err != nil {
		return false, fmt.Errorf("cluster: standby hello: %w", err)
	}
	var ack proto.Message
	if err := conn.Recv(&ack); err != nil {
		return false, fmt.Errorf("cluster: standby await hello ack: %w", err)
	}
	if ack.Type != proto.MsgAck {
		return false, fmt.Errorf("cluster: standby hello got %v, want ack", ack.Type)
	}
	if ack.Error != "" {
		return false, fmt.Errorf("cluster: standby rejected: %s", ack.Error)
	}
	s.touch()
	var msg proto.Message
	for {
		if err := conn.Recv(&msg); err != nil {
			return true, err
		}
		if msg.Type != proto.MsgReplSnapshot {
			continue
		}
		s.touch()
		if len(msg.Blob) > 0 {
			if err := s.m.NMDB().LoadSnapshot(bytes.NewReader(msg.Blob)); err != nil {
				// A snapshot that fails its checksum or validation is not
				// acknowledged; the primary's lag gauge shows the stall.
				s.metrics.applyFailures.Inc()
				s.logf("standby: snapshot apply failed: %v", err)
				continue
			}
			s.metrics.applied.Inc()
			s.mu.Lock()
			s.epoch = msg.Seq
			s.mu.Unlock()
			// Persist the applied snapshot so a standby that crashes and
			// restarts (or is promoted much later) still has it on disk.
			if s.m.store != nil {
				_ = s.m.SaveCheckpoint()
			}
		} else {
			s.metrics.heartbeats.Inc()
		}
		_ = conn.Send(&proto.Message{
			Type: proto.MsgReplAck, From: StandbyNode, To: ManagerNode,
			Seq: msg.Seq,
		})
	}
}

// watchdog promotes the manager when the replication stream has been
// silent past PromoteAfter. It polls on a real timer but measures
// staleness on the injected clock.
func (s *Standby) watchdog(ctx context.Context, done chan struct{}) {
	period := s.cfg.PromoteAfter / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-done:
			return
		case <-s.promotedCh:
			return
		case <-t.C:
			if s.cfg.Now().Sub(s.lastMsgTime()) > s.cfg.PromoteAfter {
				s.promote("replication heartbeat timeout")
				return
			}
		}
	}
}

// standbyMetrics instruments the replication receiver on the follower
// manager's registry.
type standbyMetrics struct {
	applied       *obs.Counter
	heartbeats    *obs.Counter
	applyFailures *obs.Counter
}

func newStandbyMetrics(reg *obs.Registry, s *Standby) *standbyMetrics {
	sm := &standbyMetrics{
		applied: reg.Counter("dust_standby_snapshots_applied_total",
			"replication snapshots applied to the follower NMDB"),
		heartbeats: reg.Counter("dust_standby_heartbeats_total",
			"replication heartbeats received (state unchanged)"),
		applyFailures: reg.Counter("dust_standby_apply_failures_total",
			"replication snapshots that failed checksum or validation"),
	}
	reg.GaugeFunc("dust_standby_promoted",
		"1 once this standby's manager has been promoted", func() float64 {
			if s.Promoted() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dust_standby_epoch",
		"last applied replication snapshot epoch", func() float64 {
			return float64(s.Epoch())
		})
	reg.GaugeFunc("dust_standby_replication_idle_seconds",
		"seconds since the last replication message", func() float64 {
			return s.cfg.Now().Sub(s.lastMsgTime()).Seconds()
		})
	return sm
}
