package proto

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// recvMsg receives the next message into fresh storage.
func recvMsg(c Conn) (*Message, error) {
	m := new(Message)
	if err := c.Recv(m); err != nil {
		return nil, err
	}
	return m, nil
}

func sampleMessage() *Message {
	return &Message{
		Type: MsgOffloadRequest,
		From: -1, To: 7, Seq: 42,
		Capable: true, CMax: 80, COMax: 50,
		UpdateIntervalSec: 60,
		UtilPct:           91.5, DataMb: 120.25, NumAgents: 10,
		AmountPct: 11.5, BusyNode: 3, Accept: true,
		Agents:     []string{"fault-finder", "rx-tx-packet-rates"},
		RouteNodes: []int32{3, 9, 7},
		FailedNode: -1,
	}
}

func TestProbeRoundTrip(t *testing.T) {
	probe := &Message{
		Type: MsgProbe, From: 3, To: 7, Seq: 11,
		ProbeSeq: 41, T1Ns: 123456789, PathNs: 2_000_000,
	}
	reply := &Message{
		Type: MsgProbeReply, From: 7, To: 3, Seq: 12,
		ProbeSeq: 41, T1Ns: 123456789, T2Ns: 123458000, T3Ns: 123459000,
		PathNs: 4_000_000,
	}
	report := &Message{
		Type: MsgProbeReport, From: 3, To: -1, Seq: 13,
		ProbeSamples: []ProbeSample{
			{Peer: 7, RTTNs: 4_100_000, Loss: 0.25},
			{Peer: 9, RTTNs: 900_000, Loss: 0},
		},
	}
	for _, m := range []*Message{probe, reply, report} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v roundtrip mismatch:\n in: %+v\nout: %+v", m.Type, m, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	for ty := MsgOffloadCapable; ty <= MsgHostSync; ty++ {
		m := &Message{Type: ty, From: 1, To: 2, Seq: uint64(ty)}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("type %v: %v", ty, err)
		}
		if got.Type != ty {
			t.Fatalf("type %v decoded as %v", ty, got.Type)
		}
		if ty.String() == "" || ty.String()[0] == 'u' {
			t.Fatalf("type %v has no name", ty)
		}
	}
}

func TestNackRoundTrip(t *testing.T) {
	m := &Message{Type: MsgAck, From: -1, To: 3, Seq: 9, Error: "node 99 outside topology"}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Error != m.Error {
		t.Fatalf("Error = %q, want %q", got.Error, m.Error)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	raw := Encode(sampleMessage())
	if _, err := Decode(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := Decode(append(raw, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 99 // unknown type
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// randomMessage draws a message of any type whose fields, fixed and
// variable-length alike, are each set or left zero at random. A Blob is
// occasionally larger than a connection's read buffer, so framed streams
// of these messages exercise both read paths.
func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Type:      MsgOffloadCapable + MsgType(rng.Intn(int(msgTypeMax))),
		From:      int32(rng.Intn(1000) - 1),
		To:        int32(rng.Intn(1000) - 1),
		Seq:       rng.Uint64(),
		Capable:   rng.Intn(2) == 0,
		CMax:      rng.Float64() * 100,
		COMax:     rng.Float64() * 100,
		UtilPct:   rng.Float64() * 100,
		DataMb:    rng.Float64() * 1000,
		NumAgents: int32(rng.Intn(20)),
		AmountPct: rng.Float64() * 50,
		BusyNode:  int32(rng.Intn(100)),
		Accept:    rng.Intn(2) == 0,
	}
	for i := 0; i < rng.Intn(5); i++ {
		m.Agents = append(m.Agents, string(rune('a'+i)))
	}
	for i := 0; i < rng.Intn(6); i++ {
		m.RouteNodes = append(m.RouteNodes, int32(rng.Intn(500)))
	}
	if rng.Intn(3) == 0 {
		m.Error = "registration rejected"
	}
	switch rng.Intn(8) {
	case 0:
		m.Blob = make([]byte, 1+rng.Intn(64))
	case 1:
		m.Blob = make([]byte, readBufSize+rng.Intn(2*readBufSize))
	}
	rng.Read(m.Blob)
	if rng.Intn(3) == 0 {
		m.ProbeSeq, m.T1Ns, m.T2Ns, m.T3Ns = rng.Uint64(), rng.Int63(), rng.Int63(), rng.Int63()
		m.PathNs = rng.Int63()
	}
	for i := 0; i < rng.Intn(4); i++ {
		m.ProbeSamples = append(m.ProbeSamples, ProbeSample{
			Peer: int32(rng.Intn(100)), RTTNs: rng.Int63n(1e9) - 1e8, Loss: rng.Float64(),
		})
	}
	m.StatHeartbeat = rng.Intn(4) == 0
	m.StatSuppressed = uint32(rng.Intn(3))
	return m
}

func TestDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMessage(rand.New(rand.NewSource(seed)))
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		sampleMessage(),
		{Type: MsgKeepalive, From: 4, Seq: 1},
		{Type: MsgStat, From: 2, UtilPct: 33},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReaderSize(&buf, readBufSize)
	var got Message // reused: no field may carry over between frames
	for i, want := range msgs {
		if err := ReadFrame(br, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(*want, got) {
			t.Fatalf("frame %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
	if err := ReadFrame(br, &got); err == nil {
		t.Fatal("reading from empty buffer should fail")
	}
}

func TestReadFrameRejectsHugeClaims(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := ReadFrame(bufio.NewReader(buf), new(Message)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe(4)
	defer a.Close()
	if err := a.Send(&Message{Type: MsgStat, From: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := recvMsg(b)
	if err != nil || m.From != 1 {
		t.Fatalf("recv = %+v, %v", m, err)
	}
	if err := b.Send(&Message{Type: MsgAck, From: -1}); err != nil {
		t.Fatal(err)
	}
	m, err = recvMsg(a)
	if err != nil || m.Type != MsgAck {
		t.Fatalf("recv = %+v, %v", m, err)
	}
}

func TestPipeClose(t *testing.T) {
	a, b := Pipe(1)
	a.Send(&Message{Type: MsgStat})
	a.Close()
	// Queued message still drains after close.
	if m, err := recvMsg(b); err != nil || m == nil {
		t.Fatalf("queued message lost: %v", err)
	}
	if _, err := recvMsg(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := b.Send(&Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed = %v, want ErrClosed", err)
	}
}

func TestPipeBlockingSendUnblocksOnClose(t *testing.T) {
	a, b := Pipe(0)
	_ = b
	done := make(chan error, 1)
	go func() { done <- a.Send(&Message{Type: MsgStat}) }()
	a.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked send after close = %v, want ErrClosed", err)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		m, err := recvMsg(conn)
		if err != nil {
			t.Error(err)
			return
		}
		m.To, m.From = m.From, m.To
		if err := conn.Send(m); err != nil {
			t.Error(err)
		}
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := sampleMessage()
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := recvMsg(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != want.To || got.To != want.From {
		t.Fatalf("echo did not swap endpoints: %+v", got)
	}
	wg.Wait()
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := recvMsg(c); err == nil {
		t.Fatal("recv from closed peer should error")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

// TestTCPRecvStatAllocatesNothing: receiving STAT frames off a loopback
// TCP connection into one reused Message costs no allocation — not for
// the read, not for the decode.
func TestTCPRecvStatAllocatesNothing(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	const runs = 200
	sent := make(chan error, 1)
	go func() {
		stat := &Message{Type: MsgStat, From: 4, To: -1, UtilPct: 91.5, DataMb: 12, NumAgents: 3}
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
			stat.Seq = uint64(i)
			if err := c.Send(stat); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	var m Message
	allocs := testing.AllocsPerRun(runs, func() {
		if err := srv.Recv(&m); err != nil {
			t.Fatal(err)
		}
	})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgStat || m.Seq != runs {
		t.Fatalf("last frame = %+v, want STAT seq %d", m, runs)
	}
	if allocs != 0 {
		t.Fatalf("Recv of a STAT allocates %.1f times, want 0", allocs)
	}
}
