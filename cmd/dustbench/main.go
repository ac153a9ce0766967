// Command dustbench regenerates the paper's evaluation figures
// (Section V) and the repository's ablation studies, printing the same
// rows/series each figure reports.
//
// Usage:
//
//	dustbench [-experiment all|fig1|fig6|fig7|fig8|fig9|fig10|fig11|fig12|qos|validate|dynamic|measureddrift|measuredchaos|hardware|ablations|ingest|databus|sampledingest]
//	          [-quick] [-seed N] [-iters N] [-parallelism N] [-nmdb-shards N] [-json FILE]
//
// -quick runs the trimmed configuration (seconds); the default runs the
// paper-faithful iteration counts (minutes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		which  = flag.String("experiment", "all", "which experiment to run")
		quick  = flag.Bool("quick", false, "use the trimmed quick configuration")
		seed   = flag.Int64("seed", 0, "override the scenario seed (0 = config default)")
		iters  = flag.Int("iters", 0, "override the per-point iteration count (0 = config default)")
		par    = flag.Int("parallelism", 0, "route-table worker pool size (0/1 = serial, -1 = one per CPU)")
		shards = flag.Int("nmdb-shards", 0, "NMDB registry stripe count for manager-backed experiments (0 = cluster default; rounded up to a power of two)")
		jsonTo = flag.String("json", "", "also write the selected experiments' results as JSON to this file")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *iters != 0 {
		cfg.Iterations = *iters
	}
	cfg.Parallelism = *par
	cfg.NMDBShards = *shards

	type runner struct {
		name string
		run  func() (interface{ Table() string }, error)
	}
	runners := []runner{
		{"fig1", func() (interface{ Table() string }, error) { return experiments.Fig1MonitoringCPU(cfg) }},
		{"fig6", func() (interface{ Table() string }, error) { return experiments.Fig6OffloadSavings(cfg) }},
		{"fig7", func() (interface{ Table() string }, error) { return experiments.Fig7InfeasibleRate(cfg) }},
		{"fig8", func() (interface{ Table() string }, error) { return experiments.Fig8SmallScaleTime(cfg) }},
		{"fig9", func() (interface{ Table() string }, error) { return experiments.Fig9SuccessRate(cfg) }},
		{"fig10", func() (interface{ Table() string }, error) {
			r, err := fig10(cfg)
			if err != nil {
				return nil, err
			}
			return r, nil
		}},
		{"fig11", func() (interface{ Table() string }, error) { return experiments.Fig11Scalability(cfg) }},
		{"fig12", func() (interface{ Table() string }, error) { return experiments.Fig12HeuristicScale(cfg) }},
		{"qos", func() (interface{ Table() string }, error) { return experiments.RunQoS(cfg) }},
		{"validate", func() (interface{ Table() string }, error) { return experiments.RunRouteValidation(cfg) }},
		{"dynamic", func() (interface{ Table() string }, error) { return experiments.RunDynamic(cfg) }},
		{"measureddrift", func() (interface{ Table() string }, error) { return experiments.RunMeasuredDrift(cfg) }},
		{"measuredchaos", func() (interface{ Table() string }, error) { return experiments.RunMeasuredDriftChaos(cfg) }},
		{"hardware", func() (interface{ Table() string }, error) { return experiments.RunHardwareMix(cfg) }},
		{"ablations", func() (interface{ Table() string }, error) { return experiments.RunAblations(cfg) }},
		{"ingest", func() (interface{ Table() string }, error) { return experiments.RunIngestScaling(cfg) }},
		{"databus", func() (interface{ Table() string }, error) { return experiments.RunDatabusThroughput(cfg) }},
		{"sampledingest", func() (interface{ Table() string }, error) { return experiments.RunSampledIngest(cfg) }},
	}

	ran := 0
	collected := map[string]interface{ Table() string }{}
	for _, r := range runners {
		if *which != "all" && *which != r.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dustbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		collected[r.name] = res
		fmt.Println(res.Table())
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dustbench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
	if *jsonTo != "" {
		raw, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dustbench: encode -json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonTo, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dustbench: write -json: %v\n", err)
			os.Exit(1)
		}
	}
}

// fig10 adapts the two-sweep result to the Table interface.
type fig10Result []*experiments.HopSweepResult

func fig10(cfg experiments.Config) (fig10Result, error) {
	return experiments.Fig10LargeScaleTime(cfg)
}

func (r fig10Result) Table() string {
	out := ""
	for _, sweep := range r {
		out += sweep.Table() + "\n"
	}
	return out
}
