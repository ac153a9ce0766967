// connsink.go ships remote-write frames over the cluster protocol: each
// flushed batch becomes one MsgTelemetryBatch whose Blob is the
// snappy-compressed WriteRequest. This is how an offload destination
// streams the telemetry it collects on a busy node's behalf back to that
// node (or up to an aggregator) without inventing a second wire protocol.
package databus

import (
	"fmt"
	"sync/atomic"

	"repro/internal/proto"
)

// ConnSink encodes batches and sends them as telemetry-batch messages on a
// proto.Conn. WriteBatch is single-goroutine (the pump's). Each frame is
// written in the sink's own Message with the encoder's reusable buffer as
// its Blob: proto.Conn.Send retains neither once it returns.
type ConnSink struct {
	name     string
	conn     proto.Conn
	from, to int32
	enc      rwEncoder
	scratch  []byte
	msg      proto.Message

	seq    atomic.Uint64
	frames atomic.Uint64
}

// NewConnSink creates a sink sending frames from node `from` to node `to`
// over conn.
func NewConnSink(name string, conn proto.Conn, from, to int32) *ConnSink {
	return &ConnSink{name: name, conn: conn, from: from, to: to}
}

// Name implements Sink.
func (s *ConnSink) Name() string { return s.name }

// WriteBatch implements Sink.
func (s *ConnSink) WriteBatch(batch []Sample) error {
	if len(batch) == 0 {
		return nil
	}
	s.scratch = s.enc.encodeTo(s.scratch[:0], batch)
	s.msg = proto.Message{
		Type: proto.MsgTelemetryBatch,
		From: s.from,
		To:   s.to,
		Seq:  s.seq.Add(1),
		Blob: s.scratch,
	}
	if err := s.conn.Send(&s.msg); err != nil {
		return fmt.Errorf("databus: conn sink %s: %w", s.name, err)
	}
	s.frames.Add(1)
	return nil
}

// Frames returns the number of frames sent so far.
func (s *ConnSink) Frames() uint64 { return s.frames.Load() }
