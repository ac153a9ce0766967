package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// scrapeValue extracts one series' value from a Prometheus text scrape.
func scrapeValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %q has unparsable value %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in scrape:\n%s", series, body)
	return 0
}

// TestMetricsEndToEnd drives a placement workload through an instrumented
// manager and asserts the scraped /metrics endpoint agrees with the tick
// reports: a declining candidate forces a retry, an accepting one hosts
// the excess, and a second round exercises the warm route cache.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarnessWith(t, lineTopology(4), func(cfg *ManagerConfig) {
		cfg.PlacementRetries = 2
		cfg.Metrics = reg
		// Only the DP path strategy is cacheable; the second placement
		// round below must produce route-cache hits.
		cfg.Params.PathStrategy = core.PathDP
	}, []ClientConfig{
		{Node: 0, Capable: true, Metrics: reg},
		{Node: 1, Capable: true, Metrics: reg,
			OnHost: func(int, float64, []int32) bool { return false }},
		{Node: 2, Capable: true, Metrics: reg},
		{Node: 3, Capable: true, Metrics: reg},
	})
	h.setUtil(0, 92, 50) // busy, Cs = 12
	h.setUtil(1, 30, 0)  // nearest candidate — declines every offer
	h.setUtil(2, 30, 0)  // accepting candidate
	h.setUtil(3, 65, 0)  // neutral

	var accepted, declined, timedOut, retried, unplaced, abandoned int
	for round := 0; round < 2; round++ {
		report, err := h.manager.RunPlacement()
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Accepted) != 1 || report.Accepted[0].Candidate != 2 {
			t.Fatalf("round %d accepted = %+v, want node 2", round, report.Accepted)
		}
		if len(report.Retried) != 1 {
			t.Fatalf("round %d retried = %+v, want the declined offer", round, report.Retried)
		}
		accepted += len(report.Accepted)
		declined += len(report.Declined)
		timedOut += len(report.TimedOut)
		retried += len(report.Retried)
		unplaced += len(report.Unplaced)
		abandoned += report.Abandoned()
	}

	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body := string(raw)

	// Tick counters and histograms agree with the two rounds driven above.
	for series, want := range map[string]float64{
		"dust_manager_ticks_total":                                2,
		"dust_manager_tick_seconds_count":                         2,
		`dust_manager_tick_phase_seconds_count{phase="classify"}`: 2,
		`dust_manager_tick_phase_seconds_count{phase="dispatch"}`: 2,
		`dust_manager_offers_total{verdict="accepted"}`:           float64(accepted),
		`dust_manager_offers_total{verdict="declined"}`:           float64(declined),
		`dust_manager_offers_total{verdict="timed_out"}`:          float64(timedOut),
		"dust_manager_placement_retries_total":                    float64(retried),
		"dust_manager_placement_unplaced_total":                   float64(unplaced),
		"dust_manager_placement_abandoned_total":                  float64(abandoned),
		"dust_nmdb_clients":                                       4,
		"dust_route_rows_repaired_total":                          0,
	} {
		if got := scrapeValue(t, body, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	// The second round resolves routes for an unchanged topology: the
	// route cache must have recorded both cold misses and warm hits.
	if got := scrapeValue(t, body, "dust_route_cache_misses"); got < 1 {
		t.Errorf("dust_route_cache_misses = %g, want ≥ 1", got)
	}
	if got := scrapeValue(t, body, "dust_route_cache_hits"); got < 1 {
		t.Errorf("dust_route_cache_hits = %g, want ≥ 1", got)
	}
	// Ledger gauges reflect the accepted hosting.
	if got := scrapeValue(t, body, "dust_nmdb_active_assignments"); got < 1 {
		t.Errorf("dust_nmdb_active_assignments = %g, want ≥ 1", got)
	}
	// Both protocol directions were counted: the manager received the
	// four STATs sent by setUtil, and the clients sent them.
	if got := scrapeValue(t, body, `dust_proto_recv_total{role="manager",type="stat"}`); got < 4 {
		t.Errorf("manager stat recv = %g, want ≥ 4", got)
	}
	if got := scrapeValue(t, body, `dust_proto_sent_total{role="client",type="stat"}`); got < 4 {
		t.Errorf("client stat sent = %g, want ≥ 4", got)
	}
	if got := scrapeValue(t, body, `dust_manager_handshakes_total{result="ok"}`); got != 4 {
		t.Errorf("handshakes ok = %g, want 4", got)
	}

	hz, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", hz.StatusCode)
	}
}

// autoClock advances itself by step on every read, so any code path that
// waits wall-clock time between two Now() calls sees virtual time already
// expired.
type autoClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *autoClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// TestOfferDeadlineUsesInjectedClock is the regression test for the offer
// deadline being built from time.Now() instead of the injected clock.
// AckTimeout is an hour, but the injected clock jumps two hours between
// reads, so a correct manager times the silent candidate out immediately.
// Before the fix, the deadline lived on the wall clock and RunPlacement
// blocked for the full hour (detected here as not returning within 3 s).
func TestOfferDeadlineUsesInjectedClock(t *testing.T) {
	clock := &autoClock{now: time.Unix(1000, 0), step: 2 * time.Hour}
	mgr, err := NewManager(ManagerConfig{
		Topology:   lineTopology(2),
		Defaults:   core.Thresholds{CMax: 80, COMax: 50, XMin: 10},
		AckTimeout: time.Hour,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// Raw pipe clients: they register and STAT but never answer the
	// Offload-Request, so the offer can only resolve by deadline.
	attach := func(node int32, util, data float64) proto.Conn {
		end, managerEnd := proto.Pipe(16)
		done := make(chan error, 1)
		go func() {
			_, err := mgr.Attach(managerEnd)
			done <- err
		}()
		if err := end.Send(&proto.Message{
			Type: proto.MsgOffloadCapable, From: node, Capable: true,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := recvMsg(end); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := end.Send(&proto.Message{
			Type: proto.MsgStat, From: node, UtilPct: util, DataMb: data, NumAgents: 10,
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	attach(0, 92, 50)
	attach(1, 20, 0)
	waitFor(t, func() bool {
		r0, ok0 := mgr.NMDB().Client(0)
		r1, ok1 := mgr.NMDB().Client(1)
		return ok0 && ok1 && r0.UtilPct == 92 && r1.UtilPct == 20
	})

	type outcome struct {
		report *PlacementReport
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := mgr.RunPlacement()
		done <- outcome{r, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.report.TimedOut) != 1 || len(out.report.Accepted) != 0 {
			t.Fatalf("report = %+v, want the silent candidate timed out", out.report)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("RunPlacement still blocked: offer deadline ignored the injected clock")
	}
}

// TestNMDBSnapshotRoundTripActiveOffloads round-trips an NMDB carrying
// several concurrent offloads and checks the restored timestamps drive the
// keepalive sweep correctly under an injected clock: the destination whose
// restored LastKeepalive is stale gets substituted, the fresh one does not.
func TestNMDBSnapshotRoundTripActiveOffloads(t *testing.T) {
	base := time.Unix(1000, 0)
	src := NewNMDB(lineTopology(4))
	for i := 0; i < 4; i++ {
		if err := src.Register(i, true, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Busy node 0 offloads to both 1 and 2; 3 is the spare candidate.
	src.RecordStat(0, 79, 50, 10, base) // post-offload level: below CMax
	src.RecordStat(1, 30, 0, 10, base)
	src.RecordStat(2, 30, 0, 10, base)
	src.RecordStat(3, 20, 0, 10, base)
	src.RecordOffload([]core.Assignment{
		{Busy: 0, Candidate: 1, Amount: 6, ResponseTimeSec: 1.5},
		{Busy: 0, Candidate: 2, Amount: 6, ResponseTimeSec: 2.5},
	})
	src.RecordKeepalive(1, base)                   // fresh destination
	src.RecordKeepalive(2, base.Add(-2*time.Hour)) // stale destination

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	clock := newTestClock() // frozen at base
	mgr, err := NewManager(ManagerConfig{
		Topology:         lineTopology(4),
		Defaults:         core.Thresholds{CMax: 80, COMax: 50, XMin: 10},
		KeepaliveTimeout: 90 * time.Second,
		Now:              clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if err := mgr.NMDB().LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// The full ledger and per-destination timestamps survived the trip.
	ledger := mgr.NMDB().ActiveAssignments()
	if len(ledger) != 2 {
		t.Fatalf("restored ledger = %+v, want 2 assignments", ledger)
	}
	byDest := make(map[int]core.Assignment)
	for _, a := range ledger {
		byDest[a.Candidate] = a
	}
	if byDest[1].Amount != 6 || byDest[1].ResponseTimeSec != 1.5 {
		t.Fatalf("restored 0→1 = %+v", byDest[1])
	}
	if byDest[2].ResponseTimeSec != 2.5 {
		t.Fatalf("restored 0→2 = %+v", byDest[2])
	}
	r1, _ := mgr.NMDB().Client(1)
	if !r1.LastKeepalive.Equal(base) || !r1.LastStat.Equal(base) {
		t.Fatalf("restored node 1 timestamps = %+v", r1)
	}
	r2, _ := mgr.NMDB().Client(2)
	if !r2.LastKeepalive.Equal(base.Add(-2 * time.Hour)) {
		t.Fatalf("restored node 2 keepalive = %v", r2.LastKeepalive)
	}

	// One minute after the snapshot instant: node 1's restored beacon is
	// inside the 90 s window, node 2's is hours past it.
	clock.Advance(time.Minute)
	subs, err := mgr.CheckKeepalives()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Failed != 2 {
		t.Fatalf("substitutions = %+v, want exactly the stale destination 2", subs)
	}
	if subs[0].Busy != 0 || subs[0].Replica < 0 {
		t.Fatalf("substitution = %+v, want 0's workload re-placed", subs[0])
	}
	// Node 1's hosting is untouched; node 2's moved to a replica (same-pair
	// entries merge in the ledger, so compare totals, not entry counts).
	after := mgr.NMDB().ActiveAssignments()
	var total float64
	for _, a := range after {
		if a.Candidate == 2 {
			t.Fatalf("stale destination still in ledger: %+v", after)
		}
		total += a.Amount
	}
	if total != 12 {
		t.Fatalf("post-sweep ledger = %+v, want 12 total hosted", after)
	}
}

// TestNMDBSnapshotVersionMismatchMessage pins the version-check error so a
// future format bump keeps refusing old snapshots diagnosably.
func TestNMDBSnapshotVersionMismatchMessage(t *testing.T) {
	db := NewNMDB(lineTopology(2))
	err := db.LoadSnapshot(bytes.NewBufferString(`{"version": 7}`))
	if err == nil {
		t.Fatal("version 7 snapshot accepted")
	}
	want := fmt.Sprintf("snapshot version 7, want %d", snapshotVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %q, want it to contain %q", err, want)
	}
	// A rejected load must not clobber existing state.
	if err := db.Register(0, true, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadSnapshot(bytes.NewBufferString(`{"version": 7}`)); err == nil {
		t.Fatal("version 7 snapshot accepted")
	}
	if _, ok := db.Client(0); !ok {
		t.Fatal("failed load dropped existing client records")
	}
}
