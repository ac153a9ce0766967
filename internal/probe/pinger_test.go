package probe

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestPingerRoundTrip drives a full probe exchange over an in-memory pipe
// with a latency-modelling wrapper on both legs and checks the measured
// RTT equals the modelled path latency exactly (the virtual clock never
// advances, so wall-clock deltas are zero and PathNs carries everything).
// recvMsg receives the next message into fresh storage.
func recvMsg(c proto.Conn) (*proto.Message, error) {
	m := new(proto.Message)
	if err := c.Recv(m); err != nil {
		return nil, err
	}
	return m, nil
}

func TestPingerRoundTrip(t *testing.T) {
	now := t0
	oneWay := 3 * time.Millisecond
	a, b := proto.Pipe(8)
	la := NewLatencyConn(a, func(*proto.Message) time.Duration { return oneWay })
	lb := NewLatencyConn(b, func(*proto.Message) time.Duration { return oneWay })

	p := NewPinger(PingerConfig{Node: 1, Peers: []int{2}, Interval: time.Second, Timeout: time.Second, Seed: 7})
	refl := Reflector{Node: 2}

	frames := p.Tick(now)
	if len(frames) != 1 || frames[0].Type != proto.MsgProbe || frames[0].To != 2 {
		t.Fatalf("unexpected first tick %+v", frames)
	}
	if err := la.Send(frames[0]); err != nil {
		t.Fatal(err)
	}
	got, err := recvMsg(lb)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Send(refl.Reflect(got, now)); err != nil {
		t.Fatal(err)
	}
	reply, err := recvMsg(la)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HandleReply(reply, now) {
		t.Fatal("reply not consumed")
	}
	if p.HandleReply(reply, now) {
		t.Fatal("duplicate reply consumed twice")
	}
	est := p.Estimates(now)
	if len(est) != 1 || est[0].RTT != 2*oneWay || est[0].Loss != 0 {
		t.Fatalf("expected RTT %v loss 0, got %+v", 2*oneWay, est)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after reply", p.Outstanding())
	}

	rep := p.Report(now)
	if rep == nil || rep.Type != proto.MsgProbeReport || len(rep.ProbeSamples) != 1 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if s := rep.ProbeSamples[0]; s.Peer != 2 || s.RTTNs != (2*oneWay).Nanoseconds() {
		t.Fatalf("unexpected sample %+v", s)
	}
}

// TestPingerResidenceCancellation checks the TWAMP math: a reflector that
// sat on the probe for a while does not inflate the measured RTT.
func TestPingerResidenceCancellation(t *testing.T) {
	p := NewPinger(PingerConfig{Node: 1, Peers: []int{2}, Interval: time.Second, Timeout: time.Minute, Seed: 1})
	frames := p.Tick(t0)
	// The reflector receives at +1ms, dawdles 5ms, replies; the reply
	// arrives at +8ms. Wire time is 8ms-5ms = 3ms.
	m := frames[0]
	reply := &proto.Message{
		Type: proto.MsgProbeReply, From: 2, To: 1, ProbeSeq: m.ProbeSeq,
		T1Ns: m.T1Ns,
		T2Ns: t0.Add(time.Millisecond).UnixNano(),
		T3Ns: t0.Add(6 * time.Millisecond).UnixNano(),
	}
	if !p.HandleReply(reply, t0.Add(8*time.Millisecond)) {
		t.Fatal("reply not consumed")
	}
	if est := p.Estimates(t0); est[0].RTT != 3*time.Millisecond {
		t.Fatalf("residence time not cancelled: %+v", est)
	}
}

// TestPingerTimeoutCountsAsLoss: unanswered probes expire into the loss
// estimate, and a late reply for an expired probe is ignored.
func TestPingerTimeoutCountsAsLoss(t *testing.T) {
	p := NewPinger(PingerConfig{Node: 1, Peers: []int{2}, Interval: time.Second, Timeout: time.Second, Alpha: 0.5, Seed: 1})
	frames := p.Tick(t0)
	later := t0.Add(2 * time.Second)
	p.Tick(later) // expires the first probe, emits the second
	est := p.Estimates(later)
	if len(est) != 1 || est[0].Loss != 0.5 {
		t.Fatalf("expected loss 0.5 after one timeout, got %+v", est)
	}
	late := &proto.Message{Type: proto.MsgProbeReply, From: 2, To: 1, ProbeSeq: frames[0].ProbeSeq, T1Ns: frames[0].T1Ns}
	if p.HandleReply(late, later) {
		t.Fatal("late reply for an expired probe was consumed")
	}
}

// TestPingerDeterministicSchedule: equal seeds produce identical probe
// schedules and frames; different seeds diverge.
func TestPingerDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []*proto.Message {
		p := NewPinger(PingerConfig{Node: 1, Peers: []int{2, 3, 4}, Interval: time.Second, Timeout: 10 * time.Second, Seed: seed})
		var all []*proto.Message
		for i := 0; i < 200; i++ {
			all = append(all, p.Tick(t0.Add(time.Duration(i)*100*time.Millisecond))...)
		}
		return all
	}
	a, b, c := schedule(42), schedule(42), schedule(43)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different probe schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical probe schedules (jitter not seeded?)")
	}
	// 20s of virtual time at a jittered ~1s cadence over 3 peers.
	if len(a) < 30 {
		t.Fatalf("suspiciously few probes emitted: %d", len(a))
	}
}

// TestPingerEmptyReport: nothing measured yet → no report frame.
func TestPingerEmptyReport(t *testing.T) {
	p := NewPinger(PingerConfig{Node: 1, Peers: []int{2}, Seed: 1})
	if rep := p.Report(t0); rep != nil {
		t.Fatalf("expected nil report, got %+v", rep)
	}
}

// TestPingerReportWithdrawsExpired: a peer whose estimate crossed the
// staleness horizon is reported once as a withdrawal sample (RTTNs < 0)
// so the manager can drop the edge's measured discount, and subsequent
// reports with nothing fresh and nothing newly expired are nil.
func TestPingerReportWithdrawsExpired(t *testing.T) {
	p := NewPinger(PingerConfig{
		Node: 1, Peers: []int{2}, Interval: time.Second, Timeout: time.Minute,
		StaleAfter: time.Minute, Seed: 1,
	})
	m := p.Tick(t0)[0]
	reply := &proto.Message{
		Type: proto.MsgProbeReply, From: 2, To: 1, ProbeSeq: m.ProbeSeq,
		T1Ns: m.T1Ns, T2Ns: m.T1Ns, T3Ns: m.T1Ns,
	}
	if !p.HandleReply(reply, t0.Add(2*time.Millisecond)) {
		t.Fatal("reply not consumed")
	}
	rep := p.Report(t0.Add(time.Second))
	if rep == nil || len(rep.ProbeSamples) != 1 || rep.ProbeSamples[0].RTTNs < 0 {
		t.Fatalf("unexpected fresh report %+v", rep)
	}
	rep = p.Report(t0.Add(3 * time.Minute))
	if rep == nil || len(rep.ProbeSamples) != 1 {
		t.Fatalf("expected a withdrawal-only report, got %+v", rep)
	}
	if s := rep.ProbeSamples[0]; s.Peer != 2 || s.RTTNs >= 0 {
		t.Fatalf("expected RTTNs<0 withdrawal for peer 2, got %+v", s)
	}
	if rep := p.Report(t0.Add(4 * time.Minute)); rep != nil {
		t.Fatalf("withdrawal must be one-shot, got %+v", rep)
	}
}

// TestLatencyConnLeavesControlPlaneAlone: non-probe traffic passes
// through without a PathNs charge, and the sent message is not mutated.
func TestLatencyConnLeavesControlPlaneAlone(t *testing.T) {
	a, b := proto.Pipe(4)
	la := NewLatencyConn(a, func(*proto.Message) time.Duration { return time.Second })
	stat := &proto.Message{Type: proto.MsgStat, From: 1, To: -1, UtilPct: 50}
	if err := la.Send(stat); err != nil {
		t.Fatal(err)
	}
	got, err := recvMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.PathNs != 0 {
		t.Fatalf("control-plane frame charged PathNs %d", got.PathNs)
	}
	probe := &proto.Message{Type: proto.MsgProbe, From: 1, To: 2, ProbeSeq: 1}
	if err := la.Send(probe); err != nil {
		t.Fatal(err)
	}
	got, err = recvMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.PathNs != time.Second.Nanoseconds() {
		t.Fatalf("probe frame PathNs = %d", got.PathNs)
	}
	if probe.PathNs != 0 {
		t.Fatal("LatencyConn mutated the caller's message")
	}
}
