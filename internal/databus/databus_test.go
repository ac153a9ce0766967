package databus

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/tsdb"
)

func testKey(i int) tsdb.SeriesKey {
	return tsdb.Key("dust_node_util", map[string]string{"node": string(rune('a' + i))})
}

func TestBusDeliversToAllSinks(t *testing.T) {
	bus := New(Config{QueueSize: 1024, BatchSize: 16, FlushInterval: time.Millisecond})
	a, b := &DiscardSink{SinkName: "a"}, &DiscardSink{SinkName: "b"}
	if !bus.Attach(a) || !bus.Attach(b) {
		t.Fatal("attach failed on open bus")
	}
	const n = 500
	for i := 0; i < n; i++ {
		bus.Publish(Sample{Key: testKey(i % 4), T: float64(i), V: 1})
	}
	bus.Close()
	if a.Samples() != n || b.Samples() != n {
		t.Fatalf("sinks saw %d/%d samples, want %d each", a.Samples(), b.Samples(), n)
	}
	st := bus.Stats()
	if st.Published != n || st.Dropped != 0 {
		t.Fatalf("stats %+v, want published=%d dropped=0", st, n)
	}
	if bus.Attach(&DiscardSink{}) {
		t.Fatal("attach after close should report false")
	}
}

// stallSink blocks every WriteBatch until released — the stalled-backend
// stand-in for the saturation test.
type stallSink struct {
	release chan struct{}
	got     chan int // batch sizes observed, for the drain assertion
}

func (s *stallSink) Name() string { return "stalled" }
func (s *stallSink) WriteBatch(batch []Sample) error {
	<-s.release
	select {
	case s.got <- len(batch):
	default:
	}
	return nil
}

// TestSaturationBoundedUnderStalledSink is the acceptance-criteria
// saturation proof: with a sink that never returns, memory stays bounded
// at QueueSize+BatchSize samples, Publish never blocks, and everything
// beyond the bound lands in dust_databus_dropped_total.
func TestSaturationBoundedUnderStalledSink(t *testing.T) {
	reg := obs.NewRegistry()
	const queue, batch = 256, 64
	bus := New(Config{QueueSize: queue, BatchSize: batch, FlushInterval: time.Hour, Metrics: reg})
	sink := &stallSink{release: make(chan struct{}), got: make(chan int, 1024)}
	bus.Attach(sink)

	const n = 100_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			bus.Publish(Sample{Key: testKey(0), T: float64(i), V: 1})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked under a stalled sink in shedding mode")
	}

	st := bus.Stats()
	// The pump holds at most one full batch plus whatever fits the queue;
	// everything else must have been shed.
	held := uint64(queue + batch)
	if st.Dropped < n-held {
		t.Fatalf("dropped %d, want >= %d (queue bound %d)", st.Dropped, n-held, held)
	}
	if depth := bus.QueueDepth("stalled"); depth > queue {
		t.Fatalf("queue depth %d exceeds bound %d", depth, queue)
	}

	// The counters must be scrapable under the promised names.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dust_databus_dropped_total{sink="stalled"}`,
		"dust_databus_published_total 100000",
		`dust_databus_queue_depth{sink="stalled"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	close(sink.release)
	bus.Close()
}

// TestBlockingModeBackpressures verifies Block=true trades shedding for
// waiting: nothing is dropped even through a tiny queue.
func TestBlockingModeBackpressures(t *testing.T) {
	bus := New(Config{QueueSize: 8, BatchSize: 4, FlushInterval: time.Millisecond, Block: true})
	slow := &DiscardSink{}
	bus.Attach(slow)
	const n = 10_000
	for i := 0; i < n; i++ {
		bus.Publish(Sample{Key: testKey(0), T: float64(i), V: 1})
	}
	bus.Close()
	if slow.Samples() != n {
		t.Fatalf("blocking mode lost samples: %d of %d", slow.Samples(), n)
	}
	if st := bus.Stats(); st.Dropped != 0 {
		t.Fatalf("blocking mode dropped %d", st.Dropped)
	}
}

// TestTSDBSinkConcurrent pumps samples from several publishers through a
// tsdb sink while queries run — the databus/tsdb interaction surface
// check-race exercises with -race.
func TestTSDBSinkConcurrent(t *testing.T) {
	db := tsdb.New()
	bus := New(Config{QueueSize: 1 << 14, BatchSize: 256, FlushInterval: time.Millisecond, Block: true})
	sink := NewTSDBSink("store", db)
	bus.Attach(sink)

	const pubs, per = 4, 5000
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k := testKey(p)
			for i := 0; i < per; i++ {
				bus.Publish(Sample{Key: k, T: float64(i), V: float64(p)})
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				db.NumPoints()
				db.Query(testKey(1), 0, per)
			}
		}
	}()
	wg.Wait()
	bus.Close()
	close(stop)

	if got := db.NumPoints(); got != pubs*per {
		t.Fatalf("stored %d points, want %d", got, pubs*per)
	}
	if sink.Rejected() != 0 {
		t.Fatalf("rejected %d samples from in-order publishers", sink.Rejected())
	}
}

// TestTSDBSinkRejectsBadSamplesKeepsRest: a NaN sample inside a batch must
// not take its series' healthy neighbors down with it.
func TestTSDBSinkRejectsBadSamplesKeepsRest(t *testing.T) {
	db := tsdb.New()
	sink := NewTSDBSink("store", db)
	k := testKey(0)
	err := sink.WriteBatch([]Sample{
		{Key: k, T: 1, V: 1},
		{Key: k, T: math.NaN(), V: 2},
		{Key: k, T: 3, V: 3},
	})
	if err == nil {
		t.Fatal("batch with NaN timestamp reported no error")
	}
	if sink.Rejected() != 1 {
		t.Fatalf("rejected %d, want 1", sink.Rejected())
	}
	if pts := db.Query(k, 0, 10); len(pts) != 2 {
		t.Fatalf("stored %d points, want the 2 valid ones: %v", len(pts), pts)
	}
}

func TestRemoteWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewRemoteWriteSink("rw", &buf)
	k1 := tsdb.Key("cpu_util", map[string]string{"node": "n1", "tricky": "a=b,c\\d"})
	k2 := tsdb.Key("mem_mb", nil)
	batch := []Sample{
		{Key: k1, T: 1.0, V: 0.5},
		{Key: k1, T: 2.0, V: 0.75},
		{Key: k2, T: 2.5, V: 1024},
	}
	if err := sink.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRemoteWrite(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(batch))
	}
	for i, s := range got {
		want := batch[i]
		if s.Key != want.Key || s.V != want.V || math.Abs(s.T-want.T) > 1e-3 {
			t.Fatalf("sample %d: got %+v, want %+v (keys %q vs %q)", i, s, want, s.Key, want.Key)
		}
	}
	st := sink.Stats()
	if st.Frames != 1 || st.Samples != 3 || st.CompressedBytes == 0 || st.RawBytes < st.CompressedBytes/8 {
		t.Fatalf("implausible stats %+v", st)
	}
}

func TestConnSinkDeliversTelemetryBatches(t *testing.T) {
	local, remote := proto.Pipe(64)
	defer local.Close()
	sink := NewConnSink("uplink", local, 7, -1)
	k := tsdb.Key("cpu_util", map[string]string{"node": "n7"})
	if err := sink.WriteBatch([]Sample{{Key: k, T: 10, V: 0.25}, {Key: k, T: 11, V: 0.5}}); err != nil {
		t.Fatal(err)
	}
	var m proto.Message
	if err := remote.Recv(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != proto.MsgTelemetryBatch || m.From != 7 || m.Seq != 1 {
		t.Fatalf("unexpected message %+v", m)
	}
	got, err := DecodeRemoteWrite(m.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != k || got[1].V != 0.5 {
		t.Fatalf("decoded %+v", got)
	}
	// The Blob must not alias the encoder scratch: a second flush must not
	// rewrite the first message's bytes.
	first := append([]byte(nil), m.Blob...)
	if err := sink.WriteBatch([]Sample{{Key: k, T: 12, V: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, m.Blob) {
		t.Fatal("second WriteBatch mutated the first frame's Blob")
	}
}

// TestRemoteWriteEncodeZeroAllocs pins the steady-state guarantee the
// acceptance criteria name: after warm-up, encoding a batch performs zero
// allocations.
func TestRemoteWriteEncodeZeroAllocs(t *testing.T) {
	sink := NewRemoteWriteSink("rw", discardWriter{})
	batch := make([]Sample, 512)
	for i := range batch {
		batch[i] = Sample{Key: testKey(i / 64), T: float64(i), V: float64(i) * 0.5}
	}
	// Warm up so scratch buffers reach their steady-state capacity.
	for i := 0; i < 4; i++ {
		if err := sink.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sink.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteBatch allocates %.1f times per op, want 0", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestBatchFlushOnInterval(t *testing.T) {
	bus := New(Config{QueueSize: 1024, BatchSize: 512, FlushInterval: 5 * time.Millisecond})
	d := &DiscardSink{}
	bus.Attach(d)
	bus.Publish(Sample{Key: testKey(0), T: 1, V: 1})
	deadline := time.Now().Add(2 * time.Second)
	for d.Samples() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partial batch never flushed on the interval tick")
		}
		time.Sleep(time.Millisecond)
	}
	bus.Close()
}

// failSink fails its first healAt-1 WriteBatch calls (all of them when
// healAt is 0), counting calls and delivered samples — the dead-backend
// stand-in for the retry-backoff regression tests.
type failSink struct {
	healAt  uint64
	calls   atomic.Uint64
	samples atomic.Uint64
}

func (s *failSink) Name() string { return "failing" }
func (s *failSink) WriteBatch(batch []Sample) error {
	n := s.calls.Add(1)
	if s.healAt == 0 || n < s.healAt {
		return errors.New("backend down")
	}
	s.samples.Add(uint64(len(batch)))
	return nil
}

// TestFailingSinkBackoffBoundsRetries is the regression test for the
// sink-pump hot loop: pre-fix, a failing WriteBatch was retried the
// instant the queue refilled the next batch, so a dead backend under a
// steady publisher turned its pump goroutine into a busy spin (here:
// ~2000 failing calls in microseconds). With the capped exponential
// backoff the retry rate is bounded by FailBackoffMin/Max regardless of
// queue pressure.
func TestFailingSinkBackoffBoundsRetries(t *testing.T) {
	sink := &failSink{}
	bus := New(Config{
		QueueSize: 4096, BatchSize: 1, FlushInterval: time.Millisecond,
		FailBackoffMin: 20 * time.Millisecond, FailBackoffMax: 50 * time.Millisecond,
	})
	bus.Attach(sink)
	for i := 0; i < 2000; i++ {
		bus.Publish(Sample{Key: testKey(i % 4), T: float64(i), V: 1})
	}
	time.Sleep(300 * time.Millisecond)
	calls := sink.calls.Load()
	// 300ms at ≥20ms per failing attempt admits ~15 retries; leave slack
	// for scheduling, but anything near the pre-fix thousands must fail.
	if calls == 0 || calls > 40 {
		t.Fatalf("failing sink saw %d WriteBatch calls in 300ms, want backoff-bounded (≤40)", calls)
	}
	if st := bus.Stats(); st.SinkErrors != calls {
		t.Fatalf("stats errors=%d, want every call counted (%d)", st.SinkErrors, calls)
	}
	// Close must not wait out a backoff ladder: the pending wait aborts
	// on the stop signal and the drain proceeds immediately.
	done := make(chan struct{})
	go func() { bus.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind the failure backoff")
	}
}

// TestFailingSinkRecovers: success resets the backoff ladder — once the
// backend heals, the pump returns to full-rate delivery and the samples
// still queued flow through (batches consumed by failing calls stay
// lost and counted, as before).
func TestFailingSinkRecovers(t *testing.T) {
	sink := &failSink{healAt: 4}
	bus := New(Config{
		QueueSize: 1024, BatchSize: 8, FlushInterval: time.Millisecond,
		FailBackoffMin: time.Millisecond, FailBackoffMax: 4 * time.Millisecond,
	})
	bus.Attach(sink)
	const n = 200
	for i := 0; i < n; i++ {
		bus.Publish(Sample{Key: testKey(i % 4), T: float64(i), V: 1})
	}
	bus.Close()
	if st := bus.Stats(); st.SinkErrors != 3 {
		t.Fatalf("sink errors = %d, want exactly the 3 pre-heal failures", st.SinkErrors)
	}
	if got := sink.samples.Load(); got < n-3*8 || got > n {
		t.Fatalf("delivered %d samples, want within [%d, %d]", got, n-3*8, n)
	}
}
