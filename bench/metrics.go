package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricSpec declares one reported metric. The lists below are the source
// of truth for names, units and regression bounds; bench_test.go asserts
// that BENCHMARK.json at the repository root says the same.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics an operator of the system would see, measured
// with tracing off. Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"react_ms_p50", "ms", "lower", 0.25},
	{"react_ms_p99", "ms", "lower", 0.25},
	{"alloc_kb_per_frame", "KB", "lower", 0.10},
	{"ingest_frames_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_frame", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricSpec{
	{Name: "proto.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "proto.stat_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "nmdb.record_stats_ns_per_stat", Unit: "ns", Better: "lower"},
	{Name: "nmdb.snapshot_delta_us", Unit: "us", Better: "lower"},
	{Name: "nmdb.shards_reused_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nmdb.changed_nodes_per_round", Unit: "count", Better: "lower"},
	{Name: "manager.ingest_us", Unit: "us", Better: "lower"},
	{Name: "manager.tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "manager.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "manager.dispatch_ms", Unit: "ms", Better: "lower"},
	{Name: "manager.redirect_tail_us", Unit: "us", Better: "lower"},
	{Name: "manager.offers_per_round", Unit: "count", Better: "lower"},
	{Name: "manager.retries_per_round", Unit: "count", Better: "lower"},
	{Name: "manager.stat_batch_mean", Unit: "count", Better: "higher"},
	{Name: "manager.heap_kb_per_conn", Unit: "KB", Better: "lower"},
	{Name: "core.classify_us", Unit: "us", Better: "lower"},
	{Name: "core.route_us", Unit: "us", Better: "lower"},
	{Name: "core.solve_us", Unit: "us", Better: "lower"},
	{Name: "core.planner_self_us", Unit: "us", Better: "lower"},
	{Name: "core.solve_prep_us", Unit: "us", Better: "lower"},
	{Name: "core.routecache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.route_rows_evicted_per_round", Unit: "count", Better: "lower"},
	{Name: "core.solve_mode_repair_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.solve_mode_warm_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.solve_mode_cold_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lp.cold_solve_us", Unit: "us", Better: "lower"},
	{Name: "lp.pivots_per_solve", Unit: "count", Better: "lower"},
	{Name: "graph.validate_us", Unit: "us", Better: "lower"},
	{Name: "graph.dp_us_per_source", Unit: "us", Better: "lower"},
	{Name: "verify.check_us", Unit: "us", Better: "lower"},
	{Name: "rt.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "rt.alloc_kb_per_round", Unit: "KB", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measured is one metric's value and how many samples stand behind it
// (0 for counts, ratios and whole-run totals).
type measured struct {
	value   float64
	samples int
}

// result is what one run of one workload produced.
type result struct {
	workload string
	values   map[string]measured
	// attempted counts rounds, STAT frames and offers. There is no failed
	// count beside it: every failed operation ends the run (see checkTick
	// and checkFloodDrained), so a result that gets printed has none.
	attempted int
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = measured{value: v, samples: samples}
}

// print writes the metrics named by specs as "workload metric value unit"
// lines, then the driver's result object as the last line.
func (r *result) print(w io.Writer, specs []metricSpec) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		m, ok := r.values[s.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, s.Name)
		}
		line := fmt.Sprintf("%s %s %.6g %s", r.workload, s.Name, m.value, s.Unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		fmt.Fprintln(w, line)
		out.Metrics[s.Name] = jsonMetric{Value: m.value, Unit: s.Unit}
	}
	fmt.Fprintf(w, "%s fail_ratio 0 ratio failed=0 attempted=%d\n", r.workload, r.attempted)
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}

// quantile returns the q-quantile (nearest rank) of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
