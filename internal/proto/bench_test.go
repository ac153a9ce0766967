package proto

import (
	"bufio"
	"bytes"
	"testing"
)

// benchMessage is a representative Offload-Request as the manager sends
// it: the largest common frame (a route) on the manager's hot send path.
func benchMessage() *Message {
	return &Message{
		Type: MsgOffloadRequest, From: -1, To: 7, Seq: 42,
		AmountPct: 12.5, BusyNode: 3,
		RouteNodes: []int32{3, 5, 6, 7},
	}
}

// benchStat is a STAT as a client sends it: the manager's ingest frame.
func benchStat() *Message {
	return &Message{
		Type: MsgStat, From: 7, To: -1, Seq: 42,
		UtilPct: 91.5, DataMb: 120.25, NumAgents: 3,
	}
}

// BenchmarkFrameRoundTrip measures a WriteFrame/ReadFrame cycle through a
// reused in-memory stream and one buffered reader, decoding into one
// reused Message — the codec work a tcpConn pays per message. allocs/op
// is the headline number: a STAT round trip allocates nothing, an
// Offload-Request only its freshly decoded route slice.
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		msg  *Message
	}{
		{"stat", benchStat()},
		{"offload-request", benchMessage()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			br := bufio.NewReaderSize(&buf, readBufSize)
			var m Message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteFrame(&buf, bc.msg); err != nil {
					b.Fatal(err)
				}
				if err := ReadFrame(br, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteFrame isolates the encode+frame side.
func BenchmarkWriteFrame(b *testing.B) {
	msg := benchMessage()
	var buf bytes.Buffer
	buf.Grow(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, msg); err != nil {
			b.Fatal(err)
		}
	}
}
