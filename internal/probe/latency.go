package probe

import (
	"time"

	"repro/internal/proto"
)

// LatencyConn wraps a proto.Conn and charges a modelled one-way latency
// to every probe frame it sends, accumulating it in Message.PathNs. Under
// the simulator's virtual clock an in-memory Pipe delivers instantly, so
// wall-clock RTT measurements would read ~0; PathNs carries the ground
// truth instead, and the pinger's RTT formula adds it back in. Real
// transports never wrap with LatencyConn, leave PathNs at zero, and the
// same formula measures actual wall clock.
//
// Only MsgProbe and MsgProbeReply are charged — the control plane is not
// being simulated here, only the measurement plane. The frame is copied
// before mutation, since m belongs to the caller; the copy is only passed
// through, so Send retains nothing.
type LatencyConn struct {
	inner proto.Conn
	// oneWay returns the current one-way latency for m's hop; it is read
	// per send, so tests can shift it mid-run to model congestion onset.
	oneWay func(m *proto.Message) time.Duration
}

// NewLatencyConn wraps inner; oneWay models the link (nil = no latency).
func NewLatencyConn(inner proto.Conn, oneWay func(m *proto.Message) time.Duration) *LatencyConn {
	return &LatencyConn{inner: inner, oneWay: oneWay}
}

func (c *LatencyConn) Send(m *proto.Message) error {
	if (m.Type == proto.MsgProbe || m.Type == proto.MsgProbeReply) && c.oneWay != nil {
		if d := c.oneWay(m); d > 0 {
			fwd := *m
			fwd.PathNs += d.Nanoseconds()
			return c.inner.Send(&fwd)
		}
	}
	return c.inner.Send(m)
}

func (c *LatencyConn) Recv(m *proto.Message) error { return c.inner.Recv(m) }
func (c *LatencyConn) Buffered() int               { return c.inner.Buffered() }
func (c *LatencyConn) Close() error                { return c.inner.Close() }
