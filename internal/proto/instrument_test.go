package proto

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestConnMetricsCountsByType(t *testing.T) {
	reg := obs.NewRegistry()
	cm := NewConnMetrics(reg, "manager")
	a, b := Pipe(8)
	a = cm.Wrap(a)

	if err := a.Send(&Message{Type: MsgStat, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Type: MsgStat, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Type: MsgKeepalive, From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&Message{Type: MsgAck, From: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvMsg(a); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dust_proto_sent_total{role="manager",type="stat"} 2`,
		`dust_proto_sent_total{role="manager",type="keepalive"} 1`,
		`dust_proto_recv_total{role="manager",type="ack"} 1`,
		`dust_proto_send_errors_total{role="manager"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConnMetricsCountsErrors(t *testing.T) {
	reg := obs.NewRegistry()
	cm := NewConnMetrics(reg, "client")
	a, _ := Pipe(1)
	wrapped := cm.Wrap(a)
	a.Close()
	if err := wrapped.Send(&Message{Type: MsgStat}); err == nil {
		t.Fatal("send on closed conn should fail")
	}
	if _, err := recvMsg(wrapped); err == nil {
		t.Fatal("recv on closed conn should fail")
	}
	if got := reg.Counter("dust_proto_send_errors_total", "", "role", "client").Value(); got != 1 {
		t.Fatalf("send errors = %d, want 1", got)
	}
	if got := reg.Counter("dust_proto_recv_errors_total", "", "role", "client").Value(); got != 1 {
		t.Fatalf("recv errors = %d, want 1", got)
	}
}

func TestNilConnMetricsWrapIsIdentity(t *testing.T) {
	var cm *ConnMetrics
	a, _ := Pipe(1)
	if cm.Wrap(a) != a {
		t.Fatal("nil ConnMetrics must return the conn unchanged")
	}
}
