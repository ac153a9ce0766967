package proto

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode hardens the wire codec against corrupt frames: Decode must
// never panic, and anything it accepts must re-encode canonically.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleMessage()))
	f.Add(Encode(&Message{Type: MsgKeepalive, From: 3, Seq: 9}))
	f.Add(Encode(&Message{Type: MsgRep, FailedNode: -1, RouteNodes: []int32{1, 2, 3}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Round-trip: accepted messages must encode back to an equivalent
		// message. Compare wire bytes, not structs — NaN payloads defeat
		// reflect.DeepEqual while being perfectly legal on the wire.
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, Encode(m2)) {
			t.Fatalf("re-encode not canonical:\n  %+v\n  %+v", m, m2)
		}
	})
}

// FuzzProtoRoundTrip drives the codec from the struct side: any Message
// with a valid type must survive Encode→Decode→Encode byte-identically,
// and the framed path must deliver the same bytes. (FuzzDecode starts from
// hostile wire bytes; this starts from hostile field values — huge
// strings, NaN floats, negative IDs.)
func FuzzProtoRoundTrip(f *testing.F) {
	f.Add(byte(0), int32(-1), int32(2), uint64(7), true, 80.0, 50.0, 33.5, 12.5, 4.25, int32(1), false, "cpu", "mem", int32(0), int32(3), int32(-1), "boom")
	f.Add(byte(7), int32(9), int32(-9), uint64(0), false, math.Inf(1), -1.0, 0.0, 1e300, -0.0, int32(-2), true, "", "", int32(-1), int32(-1), int32(5), "")

	f.Fuzz(func(t *testing.T, typ byte, from, to int32, seq uint64, capable bool,
		cmax, comax, util, dataMb, amount float64, busy int32, accept bool,
		agent1, agent2 string, r1, r2, failed int32, errStr string) {
		m := &Message{
			Type:       MsgOffloadCapable + MsgType(typ)%msgTypeMax,
			From:       from,
			To:         to,
			Seq:        seq,
			Capable:    capable,
			CMax:       cmax,
			COMax:      comax,
			UtilPct:    util,
			DataMb:     dataMb,
			AmountPct:  amount,
			BusyNode:   busy,
			Accept:     accept,
			NumAgents:  r1,
			Agents:     []string{agent1, agent2},
			RouteNodes: []int32{r1, r2},
			FailedNode: failed,
			Error:      errStr,
		}
		wire := Encode(m)
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of a freshly encoded message failed: %v", err)
		}
		if !bytes.Equal(Encode(got), wire) {
			t.Fatalf("round trip not byte-identical:\n  %+v\n  %+v", m, got)
		}
		if got.Type != m.Type || got.Seq != m.Seq || got.From != m.From ||
			len(got.Agents) != 2 || got.Agents[0] != agent1 || got.Agents[1] != agent2 ||
			got.Error != errStr {
			t.Fatalf("fields mangled in round trip:\n  %+v\n  %+v", m, got)
		}

		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			return // over the frame size cap: legal refusal
		}
		framed := new(Message)
		if err := ReadFrame(bufio.NewReaderSize(&buf, readBufSize), framed); err != nil {
			t.Fatalf("read of a freshly written frame failed: %v", err)
		}
		if !bytes.Equal(Encode(framed), wire) {
			t.Fatal("framed round trip altered the message")
		}
	})
}

// FuzzStatReportRoundTrip exercises the MsgStat sampled-reporting marker
// (StatHeartbeat/StatSuppressed, DESIGN.md §16): every combination of
// values and marker must survive Encode→Decode→Encode byte-identically
// with the marker fields intact, so the manager can always distinguish
// "unchanged" (heartbeat, suppressed count) from "lost" (no frame).
func FuzzStatReportRoundTrip(f *testing.F) {
	f.Add(33.5, 12.25, int32(3), false, uint32(0), uint64(1), int32(4))
	f.Add(91.0, 20.0, int32(2), true, uint32(7), uint64(42), int32(-1))
	f.Add(math.Inf(1), -0.0, int32(-1), true, uint32(math.MaxUint32), uint64(math.MaxUint64), int32(0))

	f.Fuzz(func(t *testing.T, util, dataMb float64, agents int32,
		heartbeat bool, suppressed uint32, seq uint64, from int32) {
		m := &Message{
			Type:           MsgStat,
			From:           from,
			To:             -1,
			Seq:            seq,
			UtilPct:        util,
			DataMb:         dataMb,
			NumAgents:      agents,
			StatHeartbeat:  heartbeat,
			StatSuppressed: suppressed,
		}
		wire := Encode(m)
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of a freshly encoded STAT failed: %v", err)
		}
		if got.StatHeartbeat != heartbeat || got.StatSuppressed != suppressed {
			t.Fatalf("marker mangled: got heartbeat=%v suppressed=%d, want %v/%d",
				got.StatHeartbeat, got.StatSuppressed, heartbeat, suppressed)
		}
		if got.NumAgents != agents || got.Seq != seq || got.From != from {
			t.Fatalf("STAT fields mangled in round trip:\n  %+v\n  %+v", m, got)
		}
		if !bytes.Equal(Encode(got), wire) {
			t.Fatalf("round trip not byte-identical:\n  %+v\n  %+v", m, got)
		}

		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("write frame failed: %v", err)
		}
		framed := new(Message)
		if err := ReadFrame(bufio.NewReaderSize(&buf, readBufSize), framed); err != nil {
			t.Fatalf("read of a freshly written frame failed: %v", err)
		}
		if !bytes.Equal(Encode(framed), wire) {
			t.Fatal("framed round trip altered the STAT")
		}
	})
}

// FuzzReadFrame hardens framing against hostile streams.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, sampleMessage())
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic or over-allocate regardless of input.
		br := bufio.NewReaderSize(bytes.NewReader(data), readBufSize)
		var m Message
		for {
			if err := ReadFrame(br, &m); err != nil {
				return
			}
		}
	})
}

// chunkReader hands out data in the chunk sizes a fuzz input chose,
// cycling through them, and counts the reads it served.
type chunkReader struct {
	data  []byte
	sizes []int
	reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.sizes[r.reads%len(r.sizes)], len(p), len(r.data))
	r.reads++
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzFrameStream drives the connection read path end to end: a random run
// of messages (randomMessage, some larger than the read buffer) framed
// back to back and delivered in chunks of 1 byte up to more than the
// buffer, read through one buffered reader into one reused Message. Every
// read must equal a fresh Decode of that frame's bytes, so no field
// carries over from the previous message (a STAT after a ProbeReport has
// nil ProbeSamples); it must leave the slices the previous read returned
// untouched; and a frame frameBuffered promised must be served without
// another read.
func FuzzFrameStream(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0})
	f.Add(int64(2), uint8(24), []byte{255, 3, 0, 40})
	f.Add(int64(3), uint8(5), []byte{170})

	f.Fuzz(func(t *testing.T, seed int64, count uint8, chunks []byte) {
		rng := rand.New(rand.NewSource(seed))
		var stream bytes.Buffer
		want := make([]*Message, 1+int(count)%32)
		for i := range want {
			m := randomMessage(rng)
			if err := WriteFrame(&stream, m); err != nil {
				t.Fatal(err)
			}
			var err error
			if want[i], err = Decode(Encode(m)); err != nil {
				t.Fatal(err)
			}
		}
		// Chunk sizes span 1 byte to 1.5x the read buffer.
		sizes := []int{readBufSize + readBufSize/2}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, 1+int(c)*(readBufSize+readBufSize/2)/255)
			}
		}
		cr := &chunkReader{data: stream.Bytes(), sizes: sizes}
		br := bufio.NewReaderSize(cr, readBufSize)

		var m, prev Message
		for i, w := range want {
			buffered, reads := frameBuffered(br), cr.reads
			if err := ReadFrame(br, &m); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if buffered && cr.reads != reads {
				t.Fatalf("frame %d was reported buffered but needed %d reads", i, cr.reads-reads)
			}
			if !reflect.DeepEqual(w, &m) {
				t.Fatalf("frame %d:\n got %+v\nwant %+v", i, m, *w)
			}
			if i > 0 && !reflect.DeepEqual(want[i-1], &prev) {
				t.Fatalf("reading frame %d changed frame %d's fields", i, i-1)
			}
			prev = m
		}
		if err := ReadFrame(br, &m); err != io.EOF {
			t.Fatalf("read past the last frame = %v, want io.EOF", err)
		}
	})
}
