package proto

import (
	"repro/internal/obs"
)

// ConnMetrics counts control-plane traffic by message type for one side
// of the protocol (the role label: "manager" or "client"). Counters are
// resolved once at construction, so the per-message cost of a wrapped
// connection is a single atomic add — cheap enough to leave on in
// production, which is the point: DUST treats telemetry as a workload to
// be measured, and that includes its own control traffic.
type ConnMetrics struct {
	sent, recv [msgTypeMax + 1]*obs.Counter
	sendErrs   *obs.Counter
	recvErrs   *obs.Counter
}

// NewConnMetrics builds the per-message-type counter set in reg:
// dust_proto_sent_total / dust_proto_recv_total with {role, type} labels
// and dust_proto_send_errors_total / dust_proto_recv_errors_total with
// {role}. Connections wrapped by the same ConnMetrics aggregate into the
// same series.
func NewConnMetrics(reg *obs.Registry, role string) *ConnMetrics {
	cm := &ConnMetrics{
		sendErrs: reg.Counter("dust_proto_send_errors_total",
			"failed control-plane sends (closed or faulted connections)", "role", role),
		recvErrs: reg.Counter("dust_proto_recv_errors_total",
			"failed control-plane receives (closed or faulted connections)", "role", role),
	}
	for t := MsgOffloadCapable; t <= msgTypeMax; t++ {
		cm.sent[t] = reg.Counter("dust_proto_sent_total",
			"control-plane messages sent, by type", "role", role, "type", t.String())
		cm.recv[t] = reg.Counter("dust_proto_recv_total",
			"control-plane messages received, by type", "role", role, "type", t.String())
	}
	return cm
}

// Wrap decorates conn so every Send/Recv increments the per-type
// counters. A nil ConnMetrics returns conn unchanged.
func (cm *ConnMetrics) Wrap(conn Conn) Conn {
	if cm == nil {
		return conn
	}
	return &measuredConn{Conn: conn, cm: cm}
}

type measuredConn struct {
	Conn
	cm *ConnMetrics
}

func (c *measuredConn) Send(m *Message) error {
	err := c.Conn.Send(m)
	if err != nil {
		c.cm.sendErrs.Inc()
	} else if m.Type >= MsgOffloadCapable && m.Type <= msgTypeMax {
		c.cm.sent[m.Type].Inc()
	}
	return err
}

func (c *measuredConn) Recv(m *Message) error {
	err := c.Conn.Recv(m)
	if err != nil {
		c.cm.recvErrs.Inc()
	} else if m.Type >= MsgOffloadCapable && m.Type <= msgTypeMax {
		c.cm.recv[m.Type].Inc()
	}
	return err
}
