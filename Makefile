# Verification tiers. Tier 1 (check) is the baseline gate: build, vet,
# tests, plus staticcheck when the binary is on PATH (the offline CI image
# does not ship it; go vet is the floor either way). Tier 2 (check-race)
# adds the race detector — including the observability and control-plane
# suites, whose metrics are touched from every goroutine in the system.
# The differential tier (verify) runs the full 1000-instance cross-solver
# oracle; fuzz-smoke gives every native fuzz target a short randomized
# budget on top of its checked-in corpus (DESIGN.md §11).

.PHONY: all build check check-race verify fuzz-smoke bench bench-smoke bench-baseline bench-compare bench-databus bench-probe bench-ingest-sampled chaos chaos-smoke failover databus-demo measured-demo

STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

all: check

build:
	go build ./...

check: build
	go vet ./...
ifdef STATICCHECK
	$(STATICCHECK) ./...
endif
	go test ./...
	$(MAKE) verify
	-$(MAKE) chaos-smoke
	-$(MAKE) bench-compare
	-$(MAKE) bench-databus
	-$(MAKE) bench-probe
	-$(MAKE) bench-ingest-sampled

# Differential tier: 1000 seeded random instances solved by every
# applicable solver (simplex, transport, ILP) and cross-checked against
# the independent min-cost-flow and brute-force references, plus the
# result-invariant checker. -count=1 defeats the test cache so the tier
# always re-runs.
verify:
	go test -count=1 -run 'TestDifferentialOracle' ./internal/verify

# Short randomized budget for every native fuzz target on top of the
# checked-in seed corpora. FUZZTIME=2m make fuzz-smoke for a longer soak;
# go's fuzzer accepts one -fuzz pattern per package invocation, hence the
# per-target lines.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzSolveTransport$$' -fuzztime $(FUZZTIME) ./internal/lp
	go test -run '^$$' -fuzz '^FuzzSimplexModel$$' -fuzztime $(FUZZTIME) ./internal/lp
	go test -run '^$$' -fuzz '^FuzzProtoRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/proto
	go test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/proto
	go test -run '^$$' -fuzz '^FuzzRouteCacheEquivalence$$' -fuzztime $(FUZZTIME) ./internal/core
	go test -run '^$$' -fuzz '^FuzzRouteRowRepair$$' -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz '^FuzzSnappyRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/databus
	go test -run '^$$' -fuzz '^FuzzDownsample$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	go test -run '^$$' -fuzz '^FuzzProbeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/probe
	go test -run '^$$' -fuzz '^FuzzStatReportRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/proto
	go test -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime $(FUZZTIME) ./internal/proto

# The observability and data-plane packages run first: their lock-free
# counters, pump goroutines, and the instrumented manager/client paths are
# the likeliest place for a fresh data race, so they fail fast before the
# full -race sweep. core and graph join them uncached because the route
# cache repairs shared trees in place.
check-race:
	go vet ./...
	go test -race -count=1 ./internal/obs ./internal/proto ./internal/probe ./internal/report ./internal/databus ./internal/tsdb ./internal/cluster ./internal/core ./internal/graph
	go test -race $(shell go list ./... | grep -v -e /internal/obs -e /internal/proto -e /internal/probe -e /internal/report -e /internal/databus -e /internal/tsdb -e /internal/cluster -e /internal/core -e /internal/graph)

bench:
	go test -bench=. -benchmem

# Hot-path regression report: reruns the ingest/tick/frame benchmarks and
# diffs them against the checked-in baseline (bench_baseline.txt,
# regenerated with make bench-baseline when the hot path changes on a
# quiet machine). Informational only — check treats it as non-fatal,
# since timings shift with host load; benchstat renders the diff when on
# PATH, otherwise the raw run is printed for eyeballing.
BENCH_HOT = BenchmarkNMDBIngestParallel|BenchmarkManagerTick|BenchmarkFrameRoundTrip|BenchmarkWriteFrame|BenchmarkDatabusPublish|BenchmarkRemoteWriteSink|BenchmarkProbeEstimatorObserve|BenchmarkProbeReportCodec|BenchmarkReporterDecide
BENCH_COUNT ?= 3

bench-baseline:
	go test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -count $(BENCH_COUNT) \
		./internal/cluster ./internal/proto ./internal/databus ./internal/probe ./internal/report | tee bench_baseline.txt

bench-compare:
	@go test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -count $(BENCH_COUNT) \
		./internal/cluster ./internal/proto ./internal/databus ./internal/probe ./internal/report > bench_current.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench_baseline.txt bench_current.txt; \
	else \
		echo "benchstat not on PATH; raw hot-path results (baseline in bench_baseline.txt):"; \
		cat bench_current.txt; \
	fi
	@rm -f bench_current.txt

# One iteration of every benchmark: verifies the bench harness itself
# without paying for statistically meaningful timings.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -benchmem

chaos:
	go run ./cmd/dustsim -chaos

failover:
	go run ./cmd/dustsim -failover

databus-demo:
	go run ./cmd/dustsim -databus

measured-demo:
	go run ./cmd/dustsim -measured

# Data-plane smoke: the databus publish and remote-write encode benchmarks
# with allocation counts — the 0 allocs/op steady-state encode guarantee is
# the number to watch. Non-fatal in check, like bench-compare.
bench-databus:
	go test -run '^$$' -bench 'BenchmarkDatabusPublish|BenchmarkRemoteWriteSink' \
		-benchmem ./internal/databus

# Measurement-plane smoke: estimator fold, report codec, and pinger tick
# benchmarks with allocation counts. Non-fatal in check, like bench-compare.
bench-probe:
	go test -run '^$$' -bench 'BenchmarkProbe|BenchmarkPingerTick' \
		-benchmem ./internal/probe

# Sampled-ingest frontier smoke: replays the reporting-policy study
# (DESIGN.md §16) at the quick scale and prints the bytes/objective-gap
# table. Non-fatal in check, like bench-compare — the frontier numbers are
# deterministic per seed, the wall times are not.
bench-ingest-sampled:
	go run ./cmd/dustbench -experiment sampledingest -quick

# Resilience smoke: the chaos-convergence, manager-failover, and
# crash-recovery suites under the race detector. Wired into check
# non-fatally (like bench-compare) — these tests drive real goroutine
# herds on wall-clock timers, so a loaded host can push them past their
# deadlines without indicating a regression.
chaos-smoke:
	go test -race -count=1 -timeout 180s \
		-run 'TestChaosConvergence|TestFailoverConvergence|TestManagerRestartRecovery' \
		./internal/cluster
