package proto

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

func drainN(t *testing.T, c Conn, n int, within time.Duration) []*Message {
	t.Helper()
	var out []*Message
	deadline := time.After(within)
	got := make(chan *Message, n+8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := recvMsg(c)
			if err != nil {
				return
			}
			select {
			case got <- m:
			case <-done:
				return
			}
		}
	}()
	for len(out) < n {
		select {
		case m := <-got:
			out = append(out, m)
		case <-deadline:
			t.Fatalf("received %d/%d messages before deadline", len(out), n)
		}
	}
	c.Close()
	<-done
	return out
}

func TestFaultPlanDeterministic(t *testing.T) {
	run := func() FaultStats {
		a, b := FaultPipe(64, FaultPlan{Seed: 11, Drop: 0.3, Dup: 0.2}, FaultPlan{})
		defer b.Close()
		for i := 0; i < 50; i++ {
			if err := a.Send(&Message{Type: MsgStat, Seq: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return a.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed produced different fault sequences:\n%+v\n%+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 {
		t.Fatalf("plan injected no faults: %+v", s1)
	}
}

func TestFaultConnDropAndDupCounts(t *testing.T) {
	a, b := FaultPipe(256, FaultPlan{Seed: 3, Drop: 0.5, Dup: 0.5}, FaultPlan{})
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(&Message{Type: MsgStat, Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	want := st.Delivered + st.Duplicated
	got := drainN(t, b, want, 2*time.Second)
	if len(got) != want {
		t.Fatalf("delivered %d, want %d (stats %+v)", len(got), want, st)
	}
	if st.Dropped+st.Delivered != n {
		t.Fatalf("dropped %d + delivered %d != sent %d", st.Dropped, st.Delivered, n)
	}
}

func TestFaultConnReorderSwapsAdjacent(t *testing.T) {
	// Reorder=1 holds the first message and releases it after the second:
	// every pair arrives swapped.
	a, b := FaultPipe(16, FaultPlan{Seed: 1, Reorder: 1}, FaultPlan{})
	for i := 1; i <= 4; i++ {
		if err := a.Send(&Message{Type: MsgStat, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := drainN(t, b, 4, 2*time.Second)
	seqs := []uint64{got[0].Seq, got[1].Seq, got[2].Seq, got[3].Seq}
	want := []uint64{2, 1, 4, 3}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("order = %v, want %v", seqs, want)
		}
	}
}

func TestFaultConnDelayOvertakes(t *testing.T) {
	a, b := FaultPipe(16, FaultPlan{Seed: 5, Delay: 1, DelayMin: 50 * time.Millisecond, DelayMax: 60 * time.Millisecond}, FaultPlan{})
	if err := a.Send(&Message{Type: MsgStat, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Both messages are delayed ~50ms; they still arrive.
	if err := a.Send(&Message{Type: MsgStat, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got := drainN(t, b, 2, 2*time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d messages", len(got))
	}
	if st := a.Stats(); st.Delayed != 2 {
		t.Fatalf("stats = %+v, want 2 delayed", st)
	}
}

func TestFaultConnPartitionOneWay(t *testing.T) {
	a, b := FaultPipe(16, FaultPlan{}, FaultPlan{})
	a.SetPartitioned(true)
	if err := a.Send(&Message{Type: MsgStat, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Reverse direction still flows.
	if err := b.Send(&Message{Type: MsgAck, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := recvMsg(a)
	if err != nil || m.Seq != 2 {
		t.Fatalf("reverse direction broken: %+v, %v", m, err)
	}
	a.SetPartitioned(false)
	if err := a.Send(&Message{Type: MsgStat, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	m, err = recvMsg(b)
	if err != nil || m.Seq != 3 {
		t.Fatalf("post-partition message lost: %+v, %v", m, err)
	}
	if st := a.Stats(); st.Partitioned != 1 {
		t.Fatalf("stats = %+v, want 1 partitioned", st)
	}
}

func TestFaultConnForcedDisconnect(t *testing.T) {
	a, b := FaultPipe(16, FaultPlan{DisconnectAfter: 2}, FaultPlan{})
	if err := a.Send(&Message{Type: MsgStat, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Type: MsgStat, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	// The second delivery tripped the forced disconnect; the peer drains
	// what was queued and then sees the close.
	if _, err := recvMsg(b); err != nil {
		t.Fatal(err)
	}
	if _, err := recvMsg(b); err != nil {
		t.Fatal(err)
	}
	if _, err := recvMsg(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed after forced disconnect", err)
	}
	if err := a.Send(&Message{Type: MsgStat, Seq: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after disconnect = %v, want ErrClosed", err)
	}
	if st := a.Stats(); st.ForcedDisconnects != 1 {
		t.Fatalf("stats = %+v, want 1 forced disconnect", st)
	}
}

func TestFaultConnHeal(t *testing.T) {
	a, b := FaultPipe(64, FaultPlan{Seed: 9, Drop: 1}, FaultPlan{})
	defer b.Close()
	if err := a.Send(&Message{Type: MsgStat, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	a.Heal()
	if err := a.Send(&Message{Type: MsgStat, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := recvMsg(b)
	if err != nil || m.Seq != 2 {
		t.Fatalf("healed connection dropped: %+v, %v", m, err)
	}
	if st := a.Stats(); st.Dropped != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTCPDeadlineCutsSilentPeer: a read deadline cuts a peer that sends
// nothing, and one that stalls halfway through a frame — the half already
// sitting in the connection's read buffer must not satisfy the read.
func TestTCPDeadlineCutsSilentPeer(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetDeadlines(ConnDeadlines{Read: 50 * time.Millisecond})
	// accept dials l with a raw socket, so the test controls every byte
	// the server side sees.
	accept := func(t *testing.T) (net.Conn, Conn) {
		t.Helper()
		accepted := make(chan Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		nc, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		srv := <-accepted
		t.Cleanup(func() { srv.Close() })
		return nc, srv
	}

	t.Run("silent", func(t *testing.T) {
		_, srv := accept(t)
		var m Message
		if err := srv.Recv(&m); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Recv from silent peer = %v, want the read deadline", err)
		}
	})

	t.Run("half-frame", func(t *testing.T) {
		nc, srv := accept(t)
		var frame bytes.Buffer
		if err := WriteFrame(&frame, sampleMessage()); err != nil {
			t.Fatal(err)
		}
		half := frame.Bytes()[:frame.Len()/2]
		if _, err := nc.Write(half); err != nil {
			t.Fatal(err)
		}
		var m Message
		if err := srv.Recv(&m); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Recv of half a frame = %v, want the read deadline", err)
		}
		if got := srv.(*tcpConn).br.Buffered(); got != len(half) {
			t.Fatalf("%d bytes buffered when the deadline fired, want the %d-byte half frame", got, len(half))
		}
		if srv.Buffered() != 0 {
			t.Fatal("half a frame reported as a buffered message")
		}
	})
}
