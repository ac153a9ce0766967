// Command bench is the repository's benchmark: overload→redirect latency
// and STAT-ingest capacity of one DUST-Manager serving 160 real client
// sessions over loopback TCP, with a per-layer budget from a traced run.
//
//	go run ./bench                        # all four workloads, end-to-end metrics
//	go run ./bench -trace 1               # per-layer metrics, spans in bench/out/
//	go run ./bench -workload role_churn -seed 101 -seconds 20
//	go run ./bench -selfcheck             # two sets back to back, compared to the bounds
//
// Every metric prints as "workload metric value unit"; the last line of a
// workload's block is the result object BENCHMARK.json's driver reads. Any
// failed correctness check ends the run with a non-zero exit code. See
// README.md for the round protocol, the workloads and what each per-layer
// metric is expected to move.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "", "workload to run (empty = all four, in order)")
	fs.Int64Var(&o.seed, "seed", 17, "derives topology, initial load and every drift sequence")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long each workload measures")
	fs.IntVar(&o.rounds, "rounds", 0, "stop a workload after this many rounds (0 = run for -seconds)")
	fs.IntVar(&o.setups, "setups", 15, "times the fixture is brought up per workload; setup_s is the median")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced set twice and compare every end-to-end metric with its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	if fs.NArg() > 0 || o.seconds <= 0 || o.setups < 1 || o.rounds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}

	fmt.Fprintf(stdout, "# bench: fleet160 over loopback TCP (127.0.0.1, not a real link); seed=%d seconds=%g trace=%v\n",
		o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	if *selfcheck {
		o.trace = false
		if err := selfCheck(todo, o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	for _, w := range todo {
		res, err := runWorkload(w, o)
		if err == nil {
			err = res.print(stdout, specs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a git repository does not).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// selfCheck runs the untraced set twice back to back and prints, per
// workload and end-to-end metric, how far the second run is from the
// first beside the metric's bound. Two runs of the same code that disagree
// by more than a bound mean the bound cannot be enforced.
func selfCheck(todo []workload, o options, out io.Writer) error {
	var sets [2][]*result
	for i := range sets {
		for _, w := range todo {
			res, err := runWorkload(w, o)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], res)
		}
	}
	exceeded := 0
	for k, w := range todo {
		for _, s := range endToEnd {
			a, b := sets[0][k].values[s.Name].value, sets[1][k].values[s.Name].value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if diff > s.Bound {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Fprintf(out, "%s %s run1=%.6g run2=%.6g %s diff=%.2f%% bound=%.0f%% %s\n",
				w.name, s.Name, a, b, s.Unit, 100*diff, 100*s.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}
