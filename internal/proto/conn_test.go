package proto_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/proto"
)

// connCase is one Conn implementation under the Send contract: send on
// one end, receive on the other. copies is how many times the far end
// receives each message (2 under a duplicating fault plan); adjust maps a
// sent message to what the peer should receive.
type connCase struct {
	name   string
	open   func(t *testing.T) (send, recv proto.Conn)
	copies int
	adjust func(m *proto.Message)
}

func pipeEnds(wrap func(proto.Conn) proto.Conn) func(*testing.T) (proto.Conn, proto.Conn) {
	return func(t *testing.T) (proto.Conn, proto.Conn) {
		a, b := proto.Pipe(64)
		t.Cleanup(func() { a.Close() })
		return wrap(a), b
	}
}

func faultEnds(plan proto.FaultPlan) func(*testing.T) (proto.Conn, proto.Conn) {
	return func(t *testing.T) (proto.Conn, proto.Conn) {
		a, b := proto.FaultPipe(64, plan, proto.FaultPlan{})
		t.Cleanup(func() { a.Close() })
		return a, b
	}
}

func tcpEnds(t *testing.T) (proto.Conn, proto.Conn) {
	l, err := proto.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan proto.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	send, err := proto.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	recv := <-accepted
	if recv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		send.Close()
		recv.Close()
	})
	return send, recv
}

func connCases() []connCase {
	same := func(*proto.Message) {}
	const oneWay = 3 * time.Microsecond
	return []connCase{
		{name: "pipe", open: pipeEnds(func(c proto.Conn) proto.Conn { return c }), copies: 1, adjust: same},
		{name: "fault-reorder", open: faultEnds(proto.FaultPlan{Seed: 1, Reorder: 1}), copies: 1, adjust: same},
		{name: "fault-delay", open: faultEnds(proto.FaultPlan{Seed: 1, Delay: 1, DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond}), copies: 1, adjust: same},
		{name: "fault-dup", open: faultEnds(proto.FaultPlan{Seed: 1, Dup: 1}), copies: 2, adjust: same},
		{name: "tcp", open: tcpEnds, copies: 1, adjust: same},
		{name: "metrics", open: pipeEnds(proto.NewConnMetrics(obs.NewRegistry(), "test").Wrap), copies: 1, adjust: same},
		{name: "latency", open: pipeEnds(func(c proto.Conn) proto.Conn {
			return probe.NewLatencyConn(c, func(*proto.Message) time.Duration { return oneWay })
		}), copies: 1, adjust: func(m *proto.Message) {
			if m.Type == proto.MsgProbe {
				m.PathNs += oneWay.Nanoseconds()
			}
		}},
	}
}

// fillMessage writes message i into m, reusing m's slices.
func fillMessage(m *proto.Message, i int) {
	typ := proto.MsgOffloadRequest
	if i%2 == 1 {
		typ = proto.MsgProbe // the frames LatencyConn charges and copies
	}
	*m = proto.Message{
		Type: typ, From: -1, To: 3, Seq: uint64(i + 1),
		BusyNode: int32(i), AmountPct: float64(i) + 0.5, PathNs: int64(i),
		RouteNodes:   append(m.RouteNodes[:0], int32(i), int32(i+1), int32(i+2)),
		Agents:       append(m.Agents[:0], fmt.Sprintf("agent-%d", i), "fault-finder"),
		Blob:         append(m.Blob[:0], byte(i), 0xa5, byte(i+1)),
		ProbeSamples: append(m.ProbeSamples[:0], proto.ProbeSample{Peer: int32(i), RTTNs: int64(1000 * i), Loss: 0.25}),
	}
}

// scribble overwrites every field of m and every element of its slices in
// place.
func scribble(m *proto.Message) {
	for j := range m.RouteNodes {
		m.RouteNodes[j] = -99
	}
	for j := range m.Agents {
		m.Agents[j] = "scribbled"
	}
	for j := range m.Blob {
		m.Blob[j] = 0xff
	}
	for j := range m.ProbeSamples {
		m.ProbeSamples[j] = proto.ProbeSample{Peer: -99}
	}
	m.Type, m.Seq, m.BusyNode, m.AmountPct, m.PathNs = proto.MsgKeepalive, 0, -99, -99, -99
}

// TestSendDoesNotRetain: every Conn in the tree keeps the Send contract. A
// sender reuses one Message and scribbles over it, slices included, the
// moment each Send returns; the peer must still receive every message as
// it was sent, also when a fault plan holds it back (reorder, delay) or
// delivers it twice.
func TestSendDoesNotRetain(t *testing.T) {
	const n = 8 // even: a reorder plan holds every other message until the next
	for _, tc := range connCases() {
		t.Run(tc.name, func(t *testing.T) {
			send, recv := tc.open(t)
			var want []*proto.Message
			for i := 0; i < n; i++ {
				w := new(proto.Message)
				fillMessage(w, i)
				tc.adjust(w)
				for k := 0; k < tc.copies; k++ {
					want = append(want, w)
				}
			}

			done := make(chan error, 1)
			go func() {
				var m proto.Message
				for i := 0; i < n; i++ {
					fillMessage(&m, i)
					if err := send.Send(&m); err != nil {
						done <- err
						return
					}
					scribble(&m)
				}
				done <- nil
			}()
			var got []*proto.Message
			for len(got) < len(want) {
				m := new(proto.Message)
				if err := recv.Recv(m); err != nil {
					t.Fatalf("recv %d: %v", len(got), err)
				}
				got = append(got, m)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// Faults may reorder delivery; compare in send order.
			sort.SliceStable(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("message %d arrived as\n%+v\nwant\n%+v", i, got[i], want[i])
				}
			}
		})
	}
}
