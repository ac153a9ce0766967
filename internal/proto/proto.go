// Package proto defines DUST's control-plane messages (Section III-B and
// Figure 3) — Offload-capable, ACK, STAT, Offload-Request, Offload-ACK,
// Keepalive, REP, and Host-Sync — plus the manager-to-standby replication
// messages (Repl-Hello, Repl-Snapshot, Repl-Ack), together with a compact
// length-prefixed binary codec and transports (in-memory for
// tests/simulation, TCP for real deployments) that carry them between
// DUST-Clients, the DUST-Manager, and its warm standby.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// MsgType discriminates the protocol messages.
type MsgType uint8

// Protocol message types, in the order Section III-B introduces them.
const (
	// MsgOffloadCapable is the client's registration: whether it
	// participates in offloading, and its self-declared thresholds.
	MsgOffloadCapable MsgType = iota + 1
	// MsgAck is the Manager's acknowledgment carrying the Update-Interval.
	MsgAck
	// MsgStat is the client's periodic resource report.
	MsgStat
	// MsgOffloadRequest directs a busy node's workload to a destination.
	MsgOffloadRequest
	// MsgOffloadAck confirms (or declines) an offload request.
	MsgOffloadAck
	// MsgKeepalive is the offload-destination's liveness beacon.
	MsgKeepalive
	// MsgRep notifies a replica node that it substitutes a failed
	// destination.
	MsgRep
	// MsgHostSync is a destination's declaration that it hosts AmountPct
	// of BusyNode's workload. Clients emit it after a reconnect (and
	// periodically alongside keepalives) so the manager's ledger and the
	// client's hosting state re-converge after message loss.
	MsgHostSync
	// MsgReplHello is a warm standby's registration with the primary
	// manager: the connection becomes a replication stream instead of a
	// client session.
	MsgReplHello
	// MsgReplSnapshot carries one replication epoch from primary to
	// standby: Seq is the epoch, Blob the checksummed NMDB snapshot. An
	// empty Blob is a heartbeat — the state is unchanged since the epoch
	// already shipped, but the primary is alive.
	MsgReplSnapshot
	// MsgReplAck is the standby's acknowledgment of a replication epoch
	// (Seq echoes the epoch), feeding the primary's replication-lag gauge.
	MsgReplAck
	// MsgTelemetryBatch carries one databus remote-write frame: Blob is a
	// snappy-compressed WriteRequest (see internal/databus), Seq a
	// per-sender frame counter. This is the offloaded telemetry data
	// plane, distinct from the MsgStat control-plane reports.
	MsgTelemetryBatch
	// MsgProbe is a TWAMP-Light-style active measurement frame from one
	// client toward another (relayed by the manager): ProbeSeq numbers the
	// probe, T1Ns is the sender's departure timestamp.
	MsgProbe
	// MsgProbeReply echoes a MsgProbe back to its sender: T2Ns/T3Ns are
	// the reflector's receive/transmit timestamps, ProbeSeq and T1Ns are
	// carried through unchanged.
	MsgProbeReply
	// MsgProbeReport carries a client's smoothed per-peer RTT/loss
	// estimates to the manager (ProbeSamples), feeding the MeasuredCosts
	// overlay that blends measured latency into route costs.
	MsgProbeReport
)

// msgTypeMax is the highest defined message type; the codec rejects
// anything outside [MsgOffloadCapable, msgTypeMax].
const msgTypeMax = MsgProbeReport

func (t MsgType) String() string {
	switch t {
	case MsgOffloadCapable:
		return "offload-capable"
	case MsgAck:
		return "ack"
	case MsgStat:
		return "stat"
	case MsgOffloadRequest:
		return "offload-request"
	case MsgOffloadAck:
		return "offload-ack"
	case MsgKeepalive:
		return "keepalive"
	case MsgRep:
		return "rep"
	case MsgHostSync:
		return "host-sync"
	case MsgReplHello:
		return "repl-hello"
	case MsgReplSnapshot:
		return "repl-snapshot"
	case MsgReplAck:
		return "repl-ack"
	case MsgTelemetryBatch:
		return "telemetry-batch"
	case MsgProbe:
		return "probe"
	case MsgProbeReply:
		return "probe-reply"
	case MsgProbeReport:
		return "probe-report"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Message is the union of all protocol payloads; Type selects which
// fields are meaningful. A single struct keeps the codec and transports
// simple while staying allocation-friendly.
type Message struct {
	Type MsgType
	// From and To are node identifiers; the Manager is node -1 by
	// convention.
	From, To int32
	// Seq is a per-sender sequence number for ordering and dedup.
	Seq uint64

	// Capable is MsgOffloadCapable's participation flag ('1' in the
	// paper's description).
	Capable bool
	// CMax and COMax are the client's self-declared thresholds.
	CMax, COMax float64
	// UpdateIntervalSec rides on MsgAck and configures STAT cadence.
	UpdateIntervalSec float64
	// UtilPct, DataMb, and NumAgents ride on MsgStat.
	UtilPct float64
	DataMb  float64
	// NumAgents is the number of user-defined monitoring agents running.
	NumAgents int32
	// AmountPct is the offload volume for MsgOffloadRequest/MsgRep.
	AmountPct float64
	// BusyNode is the origin of the workload in MsgOffloadRequest,
	// MsgOffloadAck, and MsgRep.
	BusyNode int32
	// Accept is MsgOffloadAck's verdict.
	Accept bool
	// Agents names the monitor agents to relocate.
	Agents []string
	// RouteNodes is the controllable route (node sequence) the Manager
	// selected for the transfer.
	RouteNodes []int32
	// FailedNode is the malfunctioning destination MsgRep replaces.
	FailedNode int32
	// Blob is MsgReplSnapshot's payload: a checksummed NMDB snapshot.
	// Empty on heartbeats.
	Blob []byte
	// Error carries a refusal reason on MsgAck: a non-empty value turns
	// the ACK into a NACK, letting a rejected client fail fast with a
	// diagnosable cause instead of a bare connection close.
	Error string
	// ProbeSeq numbers a MsgProbe within its (sender, peer) stream,
	// independent of the transport-level Seq (which the manager rewrites
	// when relaying probe frames between clients).
	ProbeSeq uint64
	// T1Ns, T2Ns, and T3Ns are the TWAMP-Light timestamps (sender
	// departure, reflector arrival, reflector departure) in nanoseconds
	// on each party's own clock; clocks need not be synchronized, since
	// RTT = (t4-T1) - (T3-T2) cancels the reflector's residence time.
	T1Ns, T2Ns, T3Ns int64
	// PathNs accumulates simulated one-way path latency as a probe frame
	// traverses latency-modelling transports (see probe.LatencyConn). Real
	// transports leave it zero and the RTT math degrades to wall clock.
	PathNs int64
	// ProbeSamples is MsgProbeReport's payload: smoothed per-peer
	// measurements.
	ProbeSamples []ProbeSample
	// StatHeartbeat marks a MsgStat as a max-silence heartbeat: the
	// client's values are unchanged (within its reporting deadbands) since
	// its last full report, and UtilPct/DataMb/NumAgents merely re-affirm
	// the last-sent values. The manager refreshes the record's report age
	// but does not treat the frame as a fresh sample.
	StatHeartbeat bool
	// StatSuppressed counts the reporting intervals the client suppressed
	// (deadband or probabilistic) since its previous frame, letting the
	// manager distinguish "unchanged" from "lost".
	StatSuppressed uint32
}

// clone returns a deep copy of m: the copy shares no slice with m.
func (m *Message) clone() *Message {
	cp := *m
	cp.Agents = slices.Clone(m.Agents)
	cp.RouteNodes = slices.Clone(m.RouteNodes)
	cp.Blob = slices.Clone(m.Blob)
	cp.ProbeSamples = slices.Clone(m.ProbeSamples)
	return &cp
}

// ProbeSample is one smoothed per-peer measurement inside a
// MsgProbeReport: EWMA RTT in nanoseconds and loss rate in [0,1] toward
// Peer, as estimated by the reporting client. A negative RTTNs is a
// withdrawal: the client's estimate for Peer went stale and the manager
// must drop any measured discount derived from it.
type ProbeSample struct {
	Peer  int32
	RTTNs int64
	Loss  float64
}

// maxMessageSize bounds a decoded frame; a frame claiming more is corrupt.
const maxMessageSize = 1 << 20

// ErrFrameTooLarge reports a frame exceeding maxMessageSize.
var ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")

// bufPool recycles frame scratch buffers across WriteFrame calls and the
// ReadFrame calls whose frame outgrows the reader's buffer. Both
// directions fully consume the buffer before returning (WriteFrame writes
// it out, DecodeInto copies every variable-length field), so no
// caller-visible data aliases a pooled buffer.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// getBuf takes a pooled buffer resized (not reallocated, when capacity
// allows) to n bytes.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) > maxMessageSize {
		return // don't keep one oversized frame's buffer alive forever
	}
	bufPool.Put(bp)
}

// Encode serializes m to its binary wire form (without framing).
func Encode(m *Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode appends m's binary wire form to b and returns the extended
// slice, letting callers reuse scratch buffers across messages.
func AppendEncode(b []byte, m *Message) []byte {
	b = append(b, byte(m.Type))
	b = appendInt32(b, m.From)
	b = appendInt32(b, m.To)
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = appendBool(b, m.Capable)
	b = appendFloat(b, m.CMax)
	b = appendFloat(b, m.COMax)
	b = appendFloat(b, m.UpdateIntervalSec)
	b = appendFloat(b, m.UtilPct)
	b = appendFloat(b, m.DataMb)
	b = appendInt32(b, m.NumAgents)
	b = appendFloat(b, m.AmountPct)
	b = appendInt32(b, m.BusyNode)
	b = appendBool(b, m.Accept)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Agents)))
	for _, a := range m.Agents {
		b = binary.BigEndian.AppendUint32(b, uint32(len(a)))
		b = append(b, a...)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.RouteNodes)))
	for _, n := range m.RouteNodes {
		b = appendInt32(b, n)
	}
	b = appendInt32(b, m.FailedNode)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Error)))
	b = append(b, m.Error...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Blob)))
	b = append(b, m.Blob...)
	b = binary.BigEndian.AppendUint64(b, m.ProbeSeq)
	b = binary.BigEndian.AppendUint64(b, uint64(m.T1Ns))
	b = binary.BigEndian.AppendUint64(b, uint64(m.T2Ns))
	b = binary.BigEndian.AppendUint64(b, uint64(m.T3Ns))
	b = binary.BigEndian.AppendUint64(b, uint64(m.PathNs))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.ProbeSamples)))
	for _, s := range m.ProbeSamples {
		b = appendInt32(b, s.Peer)
		b = binary.BigEndian.AppendUint64(b, uint64(s.RTTNs))
		b = appendFloat(b, s.Loss)
	}
	b = appendBool(b, m.StatHeartbeat)
	b = binary.BigEndian.AppendUint32(b, m.StatSuppressed)
	return b
}

// Decode parses the binary wire form produced by Encode into a fresh
// Message.
func Decode(data []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses the binary wire form produced by Encode into
// caller-owned storage. m is zeroed first, so no field of a previous
// message survives; the variable-length fields (Agents, RouteNodes, Error,
// Blob, ProbeSamples) are freshly allocated and never alias data or an
// earlier message's slices, so a caller may keep them after reusing m. A
// frame without variable-length fields (every STAT) decodes without
// allocating. On error m holds a partial decode and must not be used.
func DecodeInto(m *Message, data []byte) error {
	*m = Message{}
	d := decoder{buf: data}
	m.Type = MsgType(d.byte())
	m.From = d.int32()
	m.To = d.int32()
	m.Seq = d.uint64()
	m.Capable = d.bool()
	m.CMax = d.float()
	m.COMax = d.float()
	m.UpdateIntervalSec = d.float()
	m.UtilPct = d.float()
	m.DataMb = d.float()
	m.NumAgents = d.int32()
	m.AmountPct = d.float()
	m.BusyNode = d.int32()
	m.Accept = d.bool()
	nAgents := d.uint32()
	if d.err == nil && nAgents > maxMessageSize {
		return fmt.Errorf("proto: agent count %d implausible", nAgents)
	}
	if nAgents > 0 && d.holds(nAgents, 4) {
		m.Agents = make([]string, 0, nAgents)
	}
	for i := uint32(0); i < nAgents && d.err == nil; i++ {
		ln := d.uint32()
		m.Agents = append(m.Agents, string(d.bytes(int(ln))))
	}
	nRoute := d.uint32()
	if d.err == nil && nRoute > maxMessageSize {
		return fmt.Errorf("proto: route length %d implausible", nRoute)
	}
	if nRoute > 0 && d.holds(nRoute, 4) {
		m.RouteNodes = make([]int32, 0, nRoute)
	}
	for i := uint32(0); i < nRoute && d.err == nil; i++ {
		m.RouteNodes = append(m.RouteNodes, d.int32())
	}
	m.FailedNode = d.int32()
	nErr := d.uint32()
	if d.err == nil && nErr > maxMessageSize {
		return fmt.Errorf("proto: error length %d implausible", nErr)
	}
	m.Error = string(d.bytes(int(nErr)))
	nBlob := d.uint32()
	if d.err == nil && nBlob > maxMessageSize {
		return fmt.Errorf("proto: blob length %d implausible", nBlob)
	}
	if nBlob > 0 {
		// Copy: the source is a reader buffer (ReadFrame) or caller-owned.
		m.Blob = append([]byte(nil), d.bytes(int(nBlob))...)
	}
	m.ProbeSeq = d.uint64()
	m.T1Ns = int64(d.uint64())
	m.T2Ns = int64(d.uint64())
	m.T3Ns = int64(d.uint64())
	m.PathNs = int64(d.uint64())
	nSamples := d.uint32()
	if d.err == nil && nSamples > maxMessageSize {
		return fmt.Errorf("proto: probe sample count %d implausible", nSamples)
	}
	if nSamples > 0 && d.holds(nSamples, 20) {
		m.ProbeSamples = make([]ProbeSample, 0, nSamples)
	}
	for i := uint32(0); i < nSamples && d.err == nil; i++ {
		m.ProbeSamples = append(m.ProbeSamples, ProbeSample{
			Peer:  d.int32(),
			RTTNs: int64(d.uint64()),
			Loss:  d.float(),
		})
	}
	m.StatHeartbeat = d.bool()
	m.StatSuppressed = d.uint32()
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("proto: %d trailing bytes", len(d.buf)-d.off)
	}
	if m.Type < MsgOffloadCapable || m.Type > msgTypeMax {
		return fmt.Errorf("proto: unknown message type %d", m.Type)
	}
	return nil
}

// WriteFrame writes m with a 4-byte big-endian length prefix. The header
// and payload are assembled in one pooled buffer and written with a
// single Write call.
func WriteFrame(w io.Writer, m *Message) error {
	bp := getBuf(0)
	defer putBuf(bp)
	frame, err := appendFrame(*bp, m)
	*bp = frame
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// appendFrame appends m's length-prefixed frame to b.
func appendFrame(b []byte, m *Message) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = AppendEncode(b, m)
	payloadLen := len(b) - start - 4
	if payloadLen > maxMessageSize {
		return b, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(payloadLen))
	return b, nil
}

// readBufSize is the per-connection read buffer of a framed stream: room
// for 27 framed STATs (148 B each), so one read(2) usually brings in every
// frame the peer has written since the last wake-up. Frames larger than the
// buffer (replication snapshots) still work; they bypass it.
const readBufSize = 4 << 10

// ReadFrame reads one length-prefixed message from br into m (see
// DecodeInto). A frame that fits in br's buffer is decoded in place,
// without copying it out; a larger one is read through a pooled scratch
// buffer. A stream that ends cleanly between frames returns io.EOF, one
// that ends inside a frame io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, m *Message) error {
	hdr, err := br.Peek(4)
	if err != nil {
		return midFrame(err, len(hdr) > 0)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxMessageSize {
		return ErrFrameTooLarge
	}
	if 4+n <= br.Size() {
		frame, err := br.Peek(4 + n)
		if err != nil {
			return midFrame(err, true)
		}
		err = DecodeInto(m, frame[4:])
		_, _ = br.Discard(4 + n)
		return err
	}
	_, _ = br.Discard(4)
	bp := getBuf(n)
	defer putBuf(bp)
	if _, err := io.ReadFull(br, *bp); err != nil {
		return midFrame(err, true)
	}
	return DecodeInto(m, *bp)
}

// midFrame maps a clean end of stream to io.ErrUnexpectedEOF when part of
// a frame was already read.
func midFrame(err error, partial bool) error {
	if partial && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameBuffered reports whether br already holds a whole frame, so the
// next ReadFrame is served without touching the underlying reader.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return 4+int(binary.BigEndian.Uint32(hdr)) <= n
}

func appendInt32(b []byte, v int32) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

type decoder struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("proto: truncated message")

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = errTruncated
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

// holds reports whether the rest of the frame has room for n elements of
// at least size bytes each: a count read off the wire may size an
// allocation only when the frame can back it.
func (d *decoder) holds(n uint32, size int) bool {
	return d.err == nil && uint64(n)*uint64(size) <= uint64(len(d.buf)-d.off)
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) int32() int32 { return int32(d.uint32()) }

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) float() float64 { return math.Float64frombits(d.uint64()) }
