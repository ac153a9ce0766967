package proto

import (
	"math/rand"
	"sync"
	"time"
)

// FaultPlan configures deterministic fault injection on one direction of a
// connection. All probabilistic decisions are drawn from a private RNG
// seeded with Seed, so the *sequence* of faults depends only on the seed
// and the message count — runs are reproducible regardless of goroutine
// timing (delayed deliveries still land on the wall clock).
type FaultPlan struct {
	// Seed initializes the per-connection RNG.
	Seed int64
	// Drop is the probability a sent message is silently discarded.
	Drop float64
	// Dup is the probability a delivered message is delivered twice.
	Dup float64
	// Delay is the probability a delivered message is held for a random
	// duration in [DelayMin, DelayMax] before delivery (which also lets it
	// overtake later messages).
	Delay              float64
	DelayMin, DelayMax time.Duration
	// Reorder is the probability a message is held back and delivered
	// right after the next one (an adjacent swap).
	Reorder float64
	// DisconnectAfter force-closes the connection after that many
	// deliveries (0 = never). The peer observes an abrupt disconnect.
	DisconnectAfter int
}

// FaultStats counts the faults a FaultConn injected.
type FaultStats struct {
	Sent, Delivered                         int
	Dropped, Duplicated, Delayed, Reordered int
	Partitioned                             int
	ForcedDisconnects                       int
}

// FaultConn wraps a Conn and applies a FaultPlan to its Send path; Recv
// and Close pass through. A message held back for reordering or delay is
// a copy, so Send keeps the Conn contract and retains nothing. Wrapping
// both endpoints of a Pipe (see FaultPipe) faults both directions
// independently.
type FaultConn struct {
	inner Conn

	mu           sync.Mutex
	rng          *rand.Rand
	plan         FaultPlan
	partitioned  bool
	held         *Message
	disconnected bool
	stats        FaultStats
}

// NewFaultConn wraps inner with the given fault plan.
func NewFaultConn(inner Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// FaultPipe returns an in-memory connection pair (as Pipe) with each
// endpoint's outgoing direction governed by its own fault plan.
func FaultPipe(depth int, a, b FaultPlan) (*FaultConn, *FaultConn) {
	ca, cb := Pipe(depth)
	return NewFaultConn(ca, a), NewFaultConn(cb, b)
}

// roll draws one probabilistic decision; callers hold c.mu.
func (c *FaultConn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return c.rng.Float64() < p
}

func (c *FaultConn) Send(m *Message) error {
	c.mu.Lock()
	c.stats.Sent++
	if c.partitioned {
		// One-way partition: outgoing messages vanish while the reverse
		// direction (this endpoint's Recv) keeps flowing.
		c.stats.Partitioned++
		c.mu.Unlock()
		return nil
	}
	if c.roll(c.plan.Drop) {
		c.stats.Dropped++
		c.mu.Unlock()
		return nil
	}
	dup := c.roll(c.plan.Dup)
	if dup {
		c.stats.Duplicated++
	}
	var delay time.Duration
	if c.roll(c.plan.Delay) {
		c.stats.Delayed++
		delay = c.plan.DelayMin
		if span := c.plan.DelayMax - c.plan.DelayMin; span > 0 {
			delay += time.Duration(c.rng.Int63n(int64(span)))
		}
	}
	if c.held == nil && c.roll(c.plan.Reorder) {
		c.stats.Reordered++
		c.held = m.clone()
		c.mu.Unlock()
		return nil
	}
	held := c.held
	c.held = nil
	c.mu.Unlock()

	err := c.deliver(m, delay, dup)
	if held != nil {
		if herr := c.deliver(held, 0, false); err == nil {
			err = herr
		}
	}
	return err
}

// deliver pushes m to the inner connection, immediately or after delay.
// Delayed deliveries run on their own timer goroutine, so they may
// overtake messages sent later — that is the point. A delayed message is
// copied first: the caller may reuse m once Send returns.
func (c *FaultConn) deliver(m *Message, delay time.Duration, dup bool) error {
	if delay > 0 {
		m = m.clone()
		time.AfterFunc(delay, func() {
			_ = c.inner.Send(m)
			if dup {
				_ = c.inner.Send(m)
			}
			c.afterDelivery()
		})
		return nil
	}
	err := c.inner.Send(m)
	if dup {
		_ = c.inner.Send(m)
	}
	c.afterDelivery()
	return err
}

func (c *FaultConn) afterDelivery() {
	c.mu.Lock()
	c.stats.Delivered++
	force := c.plan.DisconnectAfter > 0 && !c.disconnected &&
		c.stats.Delivered >= c.plan.DisconnectAfter
	c.mu.Unlock()
	if force {
		c.ForceDisconnect()
	}
}

func (c *FaultConn) Recv(m *Message) error { return c.inner.Recv(m) }

func (c *FaultConn) Buffered() int { return c.inner.Buffered() }

func (c *FaultConn) Close() error { return c.inner.Close() }

// ForceDisconnect abruptly closes the underlying connection, as if the
// process died or the link was cut. Idempotent.
func (c *FaultConn) ForceDisconnect() {
	c.mu.Lock()
	if c.disconnected {
		c.mu.Unlock()
		return
	}
	c.disconnected = true
	c.stats.ForcedDisconnects++
	c.mu.Unlock()
	c.inner.Close()
}

// SetPartitioned switches the one-way partition: while on, every Send is
// silently discarded but Recv still works.
func (c *FaultConn) SetPartitioned(on bool) {
	c.mu.Lock()
	c.partitioned = on
	c.mu.Unlock()
}

// SetPlan replaces the active fault plan. The RNG and counters persist
// (the new plan's Seed is ignored), so chaos harnesses can bootstrap a
// connection reliably and turn faults on once the handshake is done.
func (c *FaultConn) SetPlan(plan FaultPlan) {
	c.mu.Lock()
	c.plan = plan
	c.mu.Unlock()
}

// Heal clears every probabilistic fault and the partition, turning the
// connection reliable from now on (chaos tests heal links before asserting
// convergence).
func (c *FaultConn) Heal() {
	c.mu.Lock()
	c.plan.Drop, c.plan.Dup, c.plan.Delay, c.plan.Reorder = 0, 0, 0, 0
	c.plan.DisconnectAfter = 0
	c.partitioned = false
	c.mu.Unlock()
}

// Stats returns a snapshot of the injected-fault counters.
func (c *FaultConn) Stats() FaultStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
