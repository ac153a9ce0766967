package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/proto"
	"repro/internal/report"
)

// Resources reports a client's current state for STAT messages.
type Resources struct {
	UtilPct   float64
	DataMb    float64
	NumAgents int
}

// ClientConfig configures a DUST-Client.
type ClientConfig struct {
	// Node is this client's node index in the manager's topology.
	Node int
	// Capable is the Offload-capable flag ('1' = participate).
	Capable bool
	// CMax and COMax are self-declared thresholds (0 = manager defaults).
	CMax, COMax float64
	// Resources supplies the STAT payload; required.
	Resources func() Resources
	// OnHost is invoked when the manager asks this node to host amountPct
	// of busy's workload; returning false declines (Offload-ACK verdict).
	// amountPct is the pair's absolute total, not an increment: a request
	// for a busy node this client already hosts resizes that hosting, so
	// OnHost must treat it as an update, not as a second install. A
	// declined resize leaves the current hosting in force. Nil accepts
	// everything.
	OnHost func(busy int, amountPct float64, route []int32) bool
	// OnRelease is invoked when the manager withdraws busy's hosted
	// workload (reclaim, or this node being substituted).
	OnRelease func(busy int)
	// OnRedirect is invoked on the busy node when the manager confirms a
	// destination: redirect amountPct of monitoring toward the route's last
	// node. The amount is that destination's absolute share; each placement
	// round sends one redirect per destination in force, and a later
	// redirect to the same destination supersedes an earlier one.
	OnRedirect func(amountPct float64, route []int32)
	// OnReplica is invoked when this node substitutes a failed destination
	// (REP message).
	OnReplica func(busy, failed int, amountPct float64)

	// Dial reopens the manager connection after a loss. When set, Run
	// supervises the connection: it reconnects with capped exponential
	// backoff, re-handshakes, and re-declares hosted workloads so the
	// NMDB ledger resyncs. Nil keeps the single-connection behavior (Run
	// returns on the first connection error), unless Dialers is set.
	Dial func() (proto.Conn, error)
	// Dialers is an ordered list of manager endpoints for failover: the
	// first reconnect attempt retries the manager the client last spoke
	// to, and each further attempt rotates to the next dialer, so a
	// client whose primary died (or answered with a standby NACK) lands
	// on the promoted standby within one rotation. Takes precedence over
	// Dial when non-empty.
	Dialers []func() (proto.Conn, error)
	// ReconnectMin and ReconnectMax bound the reconnect backoff
	// (defaults 100ms and 10s). Each failed attempt doubles the bound;
	// the actual sleep is a uniform random fraction of it (full jitter),
	// so a cluster of clients does not redial in lockstep.
	ReconnectMin, ReconnectMax time.Duration
	// MaxReconnectAttempts caps consecutive failed redials before Run
	// gives up (0 = keep trying until ctx cancels).
	MaxReconnectAttempts int
	// OnReconnectAttempt, when set, observes every failed reconnect
	// attempt (1-based attempt number and its error) before the next
	// backoff sleep.
	OnReconnectAttempt func(attempt int, err error)
	// OnAbandon, when set, is invoked once when the supervision loop gives
	// up after MaxReconnectAttempts consecutive failures, immediately
	// before Run returns — the embedder's signal that the client is
	// permanently disconnected rather than silently retrying.
	OnAbandon func(attempts int, lastErr error)
	// HandshakeTimeout bounds how long a reconnect waits for the
	// registration ACK before closing the connection and retrying
	// (default 5s; in-memory pipes have no transport deadline to cut a
	// hung handshake).
	HandshakeTimeout time.Duration
	// Seed makes the client's randomized behavior (reconnect full-jitter
	// backoff, probe schedule jitter) reproducible, like FaultConn's plan
	// seed. 0 draws a seed from the wall clock — unpredictable, but still
	// per-client, so a fleet never jitters in lockstep.
	Seed int64
	// ProbePeers are the route-relevant peers this client actively
	// measures (TWAMP-Light probes relayed via the manager). Empty
	// disables probing; the client still reflects peers' probes.
	ProbePeers []int
	// ProbeInterval is the per-peer probe cadence (0 = probe.DefaultInterval)
	// and ProbeTimeout the reply wait before a probe counts as lost
	// (0 = probe.DefaultTimeout).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ProbeStaleAfter is the estimator's staleness horizon
	// (0 = probe.DefaultStaleAfter): estimates unrefreshed past it stop
	// being reported and are withdrawn from the manager's measured-cost
	// overlay at the next report.
	ProbeStaleAfter time.Duration
	// Report is the STAT reporting policy (DESIGN.md §16): per-field
	// deadbands, probabilistic sampling, and the max-silence heartbeat.
	// The zero value is full fidelity — every interval reports, matching
	// the pre-policy behavior. A zero Report.Seed inherits the client
	// Seed, so one knob keeps the whole client deterministic.
	Report report.Policy
	// Now injects the probe clock (nil = time.Now); simulations drive it
	// virtually so measurements are deterministic.
	Now func() time.Time
	// Logf, when set, receives reconnect and resync diagnostics.
	Logf func(format string, args ...any)
	// Metrics is the observability registry the client instruments; nil
	// means a private registry. Clients on one process typically share the
	// manager's (or the simulation's) registry, aggregating into the same
	// series.
	Metrics *obs.Registry
}

// seenWindow bounds the duplicate-suppression memory. Hosting updates are
// absolute, so a replayed request alone cannot double-book, but a replay
// that arrives after a newer request or a release would put stale hosting
// back in force.
const seenWindow = 4096

// dupFilter remembers the last seenWindow accepted sequence numbers in a
// ring that grows to seenWindow entries and then overwrites its oldest, so
// a client's memory stays fixed however long it runs. Manager sequence
// numbers are monotonic per manager: a seq above every accepted one cannot
// be in the ring and is accepted without a scan; only a replayed or
// reordered seq pays for one. A replay never crosses links, and a new
// manager incarnation numbers from 1 again, so the filter covers one
// link: it is reset when a handshake succeeds.
type dupFilter struct {
	ring []uint64
	next int    // slot the next accepted seq overwrites once the ring is full
	max  uint64 // largest accepted seq, meaningful once the ring is non-empty
}

// duplicate reports whether seq is among the last seenWindow accepted
// seqs, and accepts it otherwise.
func (f *dupFilter) duplicate(seq uint64) bool {
	if len(f.ring) == 0 || seq > f.max {
		f.max = seq
	} else {
		for _, s := range f.ring {
			if s == seq {
				return true
			}
		}
	}
	if len(f.ring) < seenWindow {
		f.ring = append(f.ring, seq)
	} else {
		f.ring[f.next] = seq
		f.next = (f.next + 1) % seenWindow
	}
	return false
}

// reset forgets every accepted seq, keeping the ring's storage.
func (f *dupFilter) reset() {
	f.ring = f.ring[:0]
	f.next = 0
	f.max = 0
}

// Client is the per-device DUST agent.
type Client struct {
	cfg       ClientConfig
	metrics   *clientMetrics
	pinger    *probe.Pinger // nil without ProbePeers
	reflector probe.Reflector

	// repMu serializes the reporting policy's decide→record sequence;
	// nothing takes repMu while holding mu (only the reverse), so the
	// lock order is repMu before mu.
	repMu    sync.Mutex
	reporter *report.Reporter
	stat     proto.Message // the STAT being sent; guarded by repMu

	// rx and ack belong to the goroutine calling Step: rx is every
	// received frame, ack the Offload-ACK answering one.
	rx, ack proto.Message

	conn proto.Conn
	// seq numbers every outgoing frame.
	seq atomic.Uint64

	mu             sync.Mutex
	rng            *rand.Rand
	updateInterval float64
	hosting        map[int]float64 // busy node -> hosted percentage
	seen           dupFilter
	// dialIdx is the Dialers index of the manager the client last
	// successfully handshaked with (reconnects start there).
	dialIdx int
}

// NewClient wraps a connection; call Handshake before anything else.
func NewClient(cfg ClientConfig, conn proto.Conn) (*Client, error) {
	if cfg.Resources == nil {
		return nil, errors.New("cluster: client needs a Resources source")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	metrics := newClientMetrics(cfg.Metrics)
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	policy := cfg.Report
	if policy.Seed == 0 {
		// A distinct stream from the reconnect-jitter RNG: the reporting
		// schedule must not shift when a reconnect consumes jitter draws.
		policy.Seed = seed + 1
	}
	c := &Client{
		cfg: cfg, metrics: metrics, conn: metrics.conn.Wrap(conn),
		reflector: probe.Reflector{Node: cfg.Node},
		rng:       rand.New(rand.NewSource(seed)),
		reporter:  report.NewReporter(policy),
		hosting:   make(map[int]float64),
	}
	if len(cfg.ProbePeers) > 0 {
		c.pinger = probe.NewPinger(probe.PingerConfig{
			Node:       cfg.Node,
			Peers:      cfg.ProbePeers,
			Interval:   cfg.ProbeInterval,
			Timeout:    cfg.ProbeTimeout,
			StaleAfter: cfg.ProbeStaleAfter,
			Seed:       seed,
		})
	}
	return c, nil
}

// now is the probe clock (virtual in simulations).
func (c *Client) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// current returns the live connection; it changes only between supervised
// sessions, after the previous session's reader exits.
func (c *Client) current() proto.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

func (c *Client) setConn(conn proto.Conn) {
	c.mu.Lock()
	c.conn = c.metrics.conn.Wrap(conn)
	c.mu.Unlock()
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Handshake registers with the manager (Offload-capable → ACK) and adopts
// the assigned Update-Interval. An ACK carrying an Error is the manager's
// NACK: registration was rejected and the reason is surfaced verbatim.
// A successful handshake starts a new link, so it resets the duplicate
// filter: the manager behind it may be a fresh incarnation numbering its
// frames from 1.
func (c *Client) Handshake() error {
	conn := c.current()
	err := conn.Send(&proto.Message{
		Type: proto.MsgOffloadCapable, From: int32(c.cfg.Node), To: ManagerNode,
		Seq: c.nextSeq(), Capable: c.cfg.Capable,
		CMax: c.cfg.CMax, COMax: c.cfg.COMax,
	})
	if err != nil {
		return fmt.Errorf("cluster: send offload-capable: %w", err)
	}
	var ack proto.Message
	if err := conn.Recv(&ack); err != nil {
		return fmt.Errorf("cluster: await ack: %w", err)
	}
	if ack.Type != proto.MsgAck {
		return fmt.Errorf("cluster: handshake got %v, want ack", ack.Type)
	}
	if ack.Error != "" {
		return fmt.Errorf("cluster: registration rejected: %s", ack.Error)
	}
	c.mu.Lock()
	c.updateInterval = ack.UpdateIntervalSec
	c.seen.reset()
	c.mu.Unlock()
	return nil
}

// UpdateInterval returns the manager-assigned STAT cadence in seconds
// (zero before Handshake).
func (c *Client) UpdateInterval() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updateInterval
}

// Hosting returns a copy of the busy→amount map this node currently hosts.
func (c *Client) Hosting() map[int]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]float64, len(c.hosting))
	for k, v := range c.hosting {
		out[k] = v
	}
	return out
}

// IsDestination reports whether this node hosts any offloaded workload.
func (c *Client) IsDestination() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hosting) > 0
}

func (c *Client) nextSeq() uint64 { return c.seq.Add(1) }

// SendStat runs one reporting interval: it reads current resources and
// applies the reporting policy (DESIGN.md §16). The interval either ships
// a full STAT, ships a max-silence heartbeat re-affirming the last-sent
// values (proto.StatHeartbeat), or sends nothing at all. Every outgoing
// frame carries the number of intervals suppressed since the previous
// frame, so the manager can tell "unchanged" from "lost". With the zero
// policy every interval sends, matching the pre-policy behavior. The frame
// is built in the client's own Message, so a STAT allocates nothing.
func (c *Client) SendStat() error {
	r := c.cfg.Resources()
	c.repMu.Lock()
	defer c.repMu.Unlock()
	m := &c.stat
	switch c.reporter.Decide(r.UtilPct, r.DataMb, int32(r.NumAgents)) {
	case report.Suppress:
		c.reporter.Suppressed()
		c.metrics.statsSuppressed.Inc()
		return nil
	case report.Heartbeat:
		util, data, agents := c.reporter.LastSent()
		*m = proto.Message{
			Type: proto.MsgStat, From: int32(c.cfg.Node), To: ManagerNode,
			Seq: c.nextSeq(), UtilPct: util, DataMb: data, NumAgents: agents,
			StatHeartbeat: true, StatSuppressed: c.reporter.SuppressedSinceFrame(),
		}
		if err := c.current().Send(m); err != nil {
			return err
		}
		c.reporter.SentHeartbeat()
		c.metrics.statHeartbeats.Inc()
		return nil
	}
	*m = proto.Message{
		Type: proto.MsgStat, From: int32(c.cfg.Node), To: ManagerNode,
		Seq: c.nextSeq(), UtilPct: r.UtilPct, DataMb: r.DataMb,
		NumAgents: int32(r.NumAgents), StatSuppressed: c.reporter.SuppressedSinceFrame(),
	}
	if err := c.current().Send(m); err != nil {
		return err
	}
	c.reporter.Sent(r.UtilPct, r.DataMb, int32(r.NumAgents))
	c.metrics.statsSent.Inc()
	return nil
}

// SendKeepalive emits the offload-destination liveness beacon.
func (c *Client) SendKeepalive() error {
	return c.current().Send(&proto.Message{
		Type: proto.MsgKeepalive, From: int32(c.cfg.Node), To: ManagerNode,
		Seq: c.nextSeq(),
	})
}

// SyncHosting declares every hosted workload to the manager (Host-Sync),
// the anti-entropy side of reconnection: a lost Offload-ACK leaves this
// node hosting workload the NMDB ledger never recorded, and a substitution
// during an outage leaves it hosting workload the ledger dropped. The
// manager reconciles the ledger to the declaration or answers with a
// release.
func (c *Client) SyncHosting() error {
	for busy, amount := range c.Hosting() {
		err := c.current().Send(&proto.Message{
			Type: proto.MsgHostSync, From: int32(c.cfg.Node), To: ManagerNode,
			Seq: c.nextSeq(), BusyNode: int32(busy), AmountPct: amount,
		})
		if err != nil {
			return err
		}
		c.metrics.hostSyncs.Inc()
	}
	return nil
}

// Step receives and processes exactly one manager message. It returns the
// processed message (for tests/instrumentation) or the connection error.
// Every Step receives into the same client-owned Message, so the returned
// pointer is valid only until the next Step; the slices it references
// (a route, say) stay valid, and callbacks may keep them. Only one
// goroutine may call Step at a time.
func (c *Client) Step() (*proto.Message, error) {
	msg := &c.rx
	if err := c.current().Recv(msg); err != nil {
		return nil, err
	}
	c.dispatch(msg)
	return msg, nil
}

// isDuplicate records msg's Seq in a bounded window and reports whether it
// was already seen. Manager sequence numbers are globally monotonic, so a
// repeat means the link replayed the message.
func (c *Client) isDuplicate(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen.duplicate(seq)
}

func (c *Client) dispatch(msg *proto.Message) {
	if c.isDuplicate(msg.Seq) {
		return
	}
	switch msg.Type {
	case proto.MsgOffloadRequest:
		busy := int(msg.BusyNode)
		switch {
		case busy == c.cfg.Node:
			// Redirect instruction for this busy node.
			if c.cfg.OnRedirect != nil {
				c.cfg.OnRedirect(msg.AmountPct, msg.RouteNodes)
			}
		case msg.AmountPct == 0:
			// Release instruction for a hosted workload.
			c.mu.Lock()
			_, had := c.hosting[busy]
			delete(c.hosting, busy)
			c.mu.Unlock()
			if had && c.cfg.OnRelease != nil {
				c.cfg.OnRelease(busy)
			}
		default:
			// Hosting request: apply policy and answer with Offload-ACK. The
			// amount is the pair's absolute total.
			accept := true
			if c.cfg.OnHost != nil {
				accept = c.cfg.OnHost(busy, msg.AmountPct, msg.RouteNodes)
			}
			if accept {
				c.mu.Lock()
				c.hosting[busy] = msg.AmountPct
				c.mu.Unlock()
			}
			c.ack = proto.Message{
				Type: proto.MsgOffloadAck, From: int32(c.cfg.Node), To: ManagerNode,
				Seq: c.nextSeq(), BusyNode: msg.BusyNode, Accept: accept,
			}
			_ = c.current().Send(&c.ack)
		}
	case proto.MsgRep:
		// The REP carries the pair's new total (what this node already
		// hosted for busy plus the displaced share).
		c.mu.Lock()
		c.hosting[int(msg.BusyNode)] = msg.AmountPct
		c.mu.Unlock()
		if c.cfg.OnReplica != nil {
			c.cfg.OnReplica(int(msg.BusyNode), int(msg.FailedNode), msg.AmountPct)
		}
	case proto.MsgProbe:
		// Reflect a peer's probe: timestamp and echo (TWAMP-Light). The
		// reply rides back through the manager relay like the probe came.
		reply := c.reflector.Reflect(msg, c.now())
		reply.Seq = c.nextSeq()
		c.metrics.probesRefl.Inc()
		_ = c.current().Send(reply)
	case proto.MsgProbeReply:
		if c.pinger != nil {
			c.pinger.HandleReply(msg, c.now())
		}
	}
}

// ProbeTick advances the active-measurement schedule: due probes are
// sent (via the manager relay) and overdue ones expire into the loss
// estimate. A no-op without ProbePeers.
func (c *Client) ProbeTick() error {
	if c.pinger == nil {
		return nil
	}
	for _, m := range c.pinger.Tick(c.now()) {
		m.Seq = c.nextSeq()
		if err := c.current().Send(m); err != nil {
			return err
		}
		c.metrics.probesSent.Inc()
	}
	return nil
}

// SendProbeReport ships the current smoothed RTT/loss estimates to the
// manager (MsgProbeReport). A no-op without ProbePeers or before any
// measurement completes.
func (c *Client) SendProbeReport() error {
	if c.pinger == nil {
		return nil
	}
	rep := c.pinger.Report(c.now())
	if rep == nil {
		return nil
	}
	rep.Seq = c.nextSeq()
	if err := c.current().Send(rep); err != nil {
		return err
	}
	c.metrics.probeReports.Inc()
	return nil
}

// ProbeEstimates exposes the pinger's current smoothed samples (empty
// without ProbePeers). Tests and embedders inspect convergence with it.
func (c *Client) ProbeEstimates() []probe.Sample {
	if c.pinger == nil {
		return nil
	}
	return c.pinger.Estimates(c.now())
}

// ProbesOutstanding reports in-flight probe count (tests settle on 0).
func (c *Client) ProbesOutstanding() int {
	if c.pinger == nil {
		return 0
	}
	return c.pinger.Outstanding()
}

// Run drives the client autonomously: a reader loop dispatching manager
// messages, plus STAT at the assigned Update-Interval and Keepalives (with
// a Host-Sync declaration per hosted workload) at a third of the interval
// while acting as a destination. Without cfg.Dial it returns when ctx is
// canceled or the connection closes. With cfg.Dial it supervises the
// connection: a loss triggers redial with capped exponential backoff and
// full jitter, a fresh handshake, and a hosting resync, until ctx cancels
// or MaxReconnectAttempts consecutive redials fail. Handshake must have
// run.
func (c *Client) Run(ctx context.Context) error {
	if c.UpdateInterval() <= 0 {
		return errors.New("cluster: Run before Handshake")
	}
	for {
		err := c.runSession(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if c.cfg.Dial == nil && len(c.cfg.Dialers) == 0 {
			if errors.Is(err, proto.ErrClosed) {
				return nil
			}
			return err
		}
		c.logf("client %d: connection lost (%v), reconnecting", c.cfg.Node, err)
		if err := c.reconnect(ctx); err != nil {
			return err
		}
	}
}

// runSession drives one connection until it fails or ctx cancels.
func (c *Client) runSession(ctx context.Context) error {
	c.metrics.sessions.Inc()
	interval := c.UpdateInterval()
	conn := c.current()
	errCh := make(chan error, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if _, err := c.Step(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// The reader receives into the client's one Message, so it must be
	// gone before the next session's reader starts: every way out closes
	// the connection and waits for it.
	defer func() {
		conn.Close()
		<-readerDone
	}()

	statTick := time.NewTicker(time.Duration(interval * float64(time.Second)))
	defer statTick.Stop()
	kaTick := time.NewTicker(time.Duration(interval / 3 * float64(time.Second)))
	defer kaTick.Stop()
	// The probe scheduler keeps its own per-peer jittered cadence; this
	// ticker only bounds how often it gets a chance to run. Without
	// ProbePeers the ticker never fires (its channel is nil).
	var probeTickC <-chan time.Time
	if c.pinger != nil {
		probeInterval := c.cfg.ProbeInterval
		if probeInterval <= 0 {
			probeInterval = probe.DefaultInterval
		}
		probeTick := time.NewTicker(probeInterval / 4)
		defer probeTick.Stop()
		probeTickC = probeTick.C
		if err := c.ProbeTick(); err != nil {
			return err
		}
	}

	if err := c.SendStat(); err != nil {
		return err
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-errCh:
			return err
		case <-statTick.C:
			if err := c.SendStat(); err != nil {
				return err
			}
			// Measurement reports ride the STAT cadence.
			if err := c.SendProbeReport(); err != nil {
				return err
			}
		case <-probeTickC:
			if err := c.ProbeTick(); err != nil {
				return err
			}
		case <-kaTick.C:
			if c.IsDestination() {
				if err := c.SendKeepalive(); err != nil {
					return err
				}
				// Periodic anti-entropy: re-declare hosted workloads so a
				// ledger divergence heals within one keepalive period even
				// without a reconnect.
				if err := c.SyncHosting(); err != nil {
					return err
				}
			}
		}
	}
}

// reconnect redials and re-handshakes with capped exponential backoff,
// then re-declares hosted workloads so the NMDB ledger resyncs. With
// Dialers configured, the first attempt retries the last-good manager and
// each further attempt rotates to the next endpoint (failover). Giving up
// after MaxReconnectAttempts fires OnAbandon so the embedder observes
// permanent disconnection.
func (c *Client) reconnect(ctx context.Context) error {
	minDelay, maxDelay := c.cfg.ReconnectMin, c.cfg.ReconnectMax
	if minDelay <= 0 {
		minDelay = 100 * time.Millisecond
	}
	if maxDelay < minDelay {
		maxDelay = 10 * time.Second
		if maxDelay < minDelay {
			maxDelay = minDelay
		}
	}
	c.mu.Lock()
	startIdx := c.dialIdx
	c.mu.Unlock()
	delay := minDelay
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.cfg.MaxReconnectAttempts > 0 && attempt > c.cfg.MaxReconnectAttempts {
			c.metrics.abandons.Inc()
			err := fmt.Errorf("cluster: client %d gave up reconnecting after %d attempts: %w",
				c.cfg.Node, c.cfg.MaxReconnectAttempts, lastErr)
			if c.cfg.OnAbandon != nil {
				c.cfg.OnAbandon(c.cfg.MaxReconnectAttempts, lastErr)
			}
			return err
		}
		// Full jitter: sleep a uniform fraction of the current bound,
		// drawn from the client's seeded RNG so chaos/failover runs
		// reproduce (the global rand source would differ run to run and
		// interleave with every other rand user in the process).
		sleep := c.reconnectJitter(delay)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		dial, idx := c.cfg.Dial, startIdx
		if n := len(c.cfg.Dialers); n > 0 {
			idx = (startIdx + attempt - 1) % n
			dial = c.cfg.Dialers[idx]
		}
		conn, err := dial()
		if err == nil {
			c.setConn(conn)
			if err = c.handshakeWithTimeout(conn); err == nil {
				if err = c.SyncHosting(); err == nil {
					c.mu.Lock()
					c.dialIdx = idx
					c.mu.Unlock()
					c.metrics.reconnects["ok"].Inc()
					if idx != startIdx {
						c.metrics.failovers.Inc()
						c.logf("client %d: failed over to manager %d on attempt %d",
							c.cfg.Node, idx, attempt)
					} else {
						c.logf("client %d: reconnected on attempt %d", c.cfg.Node, attempt)
					}
					return nil
				}
			}
			conn.Close()
		}
		lastErr = err
		c.metrics.reconnects["fail"].Inc()
		if c.cfg.OnReconnectAttempt != nil {
			c.cfg.OnReconnectAttempt(attempt, err)
		}
		c.logf("client %d: reconnect attempt %d failed: %v", c.cfg.Node, attempt, err)
		delay *= 2
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

// reconnectJitter draws one full-jitter backoff sleep in [0, bound] from
// the client's seeded RNG.
func (c *Client) reconnectJitter(bound time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(bound) + 1))
}

// handshakeWithTimeout runs Handshake, force-closing conn if the ACK does
// not arrive in time (the close makes the pending Recv fail).
func (c *Client) handshakeWithTimeout(conn proto.Conn) error {
	timeout := c.cfg.HandshakeTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	timer := time.AfterFunc(timeout, func() { conn.Close() })
	defer timer.Stop()
	return c.Handshake()
}
