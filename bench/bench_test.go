package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the shape of BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the lists the program
// prints from: same workloads, same metrics, same units and bounds.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, declared []specMetric, program []metricSpec, bounded bool) {
		if len(declared) != len(program) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(declared), len(program))
		}
		for i, p := range program {
			d := declared[i]
			if !nameRE.MatchString(p.Name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", kind, p.Name)
			}
			if d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, d, p)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != p.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the program's %v", kind, p.Name, p.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs all four workloads, untraced and traced, for a handful of
// rounds each and asserts that every run passes its own correctness gates
// and emits exactly the metric set BENCHMARK.json declares for its kind.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, kind := range []struct {
		trace    string
		declared []specMetric
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var want []string
		for _, m := range kind.declared {
			want = append(want, m.Name)
		}
		sort.Strings(want)

		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := []string{"-rounds", "20", "-seconds", "0.2", "-setups", "1", "-trace", kind.trace, "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v exited %d:\n%s%s", args, code, stdout.String(), stderr.String())
		}

		var results []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "{") {
				results = append(results, line)
			}
		}
		if len(results) != len(workloads) {
			t.Fatalf("trace=%s: %d result objects for %d workloads:\n%s", kind.trace, len(results), len(workloads), stdout.String())
		}
		for i, line := range results {
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			name := workloads[i].name
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", name, kind.trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%s emitted\n  %v\nBENCHMARK.json declares\n  %v", name, kind.trace, got, want)
			}
			if kind.trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}
