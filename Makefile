GO ?= go
FUZZTIME ?= 10s

# Seeds for the chaos suite (internal/server's TestChaos*). Three distinct
# seeds so CI exercises three different fault schedules; override with
# CHAOS_SEEDS=... to replay a specific failing schedule.
CHAOS_SEEDS ?= 1,7,1337

# Packages whose test coverage is floored: the resilience layer, the
# gateway that routes around failures, the one solver path (the kernel
# state every strategy runs on, and greedy's strategies over it), the
# graph it solves (whose one derived slot holds the kernel's per-graph
# record), the one request path in front of it (the node's handlers and
# the request type with its validator), and the bounded tables behind both
# (the graph registry, the prefix cache and the LRU table they, the
# gateway's route maps and the profile ring evict through). Silent
# coverage rot here would hollow out the chaos suite's guarantees, the
# gateway's routing tests, the differential suite's, the request tests'
# and the eviction tests'.
COVER_PKGS := ./internal/retry ./internal/faults ./internal/cluster ./internal/kernel ./internal/greedy ./internal/server ./internal/jobs \
	./internal/store ./internal/solvecache ./internal/lru ./internal/graph
COVER_FLOOR := 70

# Every fuzz target in the repo, as package:Func pairs. go test allows only
# one -fuzz pattern per invocation, so fuzz-short loops over them.
FUZZ_TARGETS := \
	./internal/graph:FuzzReadTSV \
	./internal/graph:FuzzReadBinary \
	./internal/graph:FuzzReadJSON \
	./internal/clickstream:FuzzTSVReader \
	./internal/clickstream:FuzzJSONLReader \
	./internal/clickstream:FuzzClickstreamParse \
	./internal/store:FuzzValidateName \
	./internal/jobs:FuzzJobRequestJSON \
	./internal/faults:FuzzFaultSpec \
	./internal/trace:FuzzTraceparent \
	./internal/debugpage:FuzzNegotiate \
	./internal/promtext:FuzzPromText \
	./internal/slo:FuzzSLOSpec \
	./internal/server:FuzzSolveResponseJSON \
	./internal/server:FuzzSparseCoverage \
	./cmd/prefcover:FuzzGraphImport

.PHONY: all build test test-race chaos cover fuzz-short smoke cluster-smoke bench bench-serving bench-json bench-gate profile vet fmt-check ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...
	$(MAKE) chaos

# chaos runs the end-to-end resilience suites under the race detector across
# $(CHAOS_SEEDS); each seed is a fully reproducible fault schedule. Covers
# the single-node suite (internal/server) and the 3-node gateway cluster
# suite (internal/cluster: replication, failover accounting, the
# cluster-level differential oracle).
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 -run '^TestChaos' \
		./internal/server ./internal/cluster

# cover enforces a coverage floor on the COVER_PKGS packages.
cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | awk '{for (i=1;i<=NF;i++) if ($$i ~ /%$$/) {sub("%","",$$i); print $$i}}'); \
		echo "coverage $$pkg: $$pct%"; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p+0 >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then \
			echo "coverage for $$pkg is $$pct%, below the $(COVER_FLOOR)% floor"; exit 1; fi; \
	done

fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; fn=$${t#*:}; \
		echo "--- fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run=NONE -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME) $$pkg; \
	done

# smoke boots the real prefcoverd binary on an ephemeral port, scrapes
# /metrics and /debug/statusz, validates the Prometheus text format and
# the expected metric families, and checks SIGTERM drains cleanly. The
# SLO half boots a second daemon with a tight availability SLO plus a
# fault injector and watches the ALERTS lifecycle fire and resolve
# through /metrics, /debug/slo, and /debug/faults.
smoke:
	$(GO) test -count=1 -run '^(TestStatuszMetricsSmoke|TestSLOAlertSmoke)$$' ./cmd/prefcoverd

# cluster-smoke boots three real prefcoverd nodes plus a -gateway process,
# pushes a graph through the gateway (R=2 replication), kills the node
# that served a solve, and checks failover keeps answering with the
# identical ordered prefix while the ring rebalances onto the survivors.
cluster-smoke:
	$(GO) test -count=1 -run '^TestClusterSmoke$$' ./cmd/prefcoverd

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# bench-serving records the serving benchmark (bench/, see bench/README.md)
# into BENCH_serving.json: every workload once for each of seeds 1, 2 and 3,
# each run's final JSON line kept as the run printed it, stamped with the
# git SHA and CPU count. About 7 minutes on 2 CPUs. If any run fails, the
# file is left as it was.
bench-serving:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for s in 1 2 3; do \
		bash bench/run.sh -seed $$s > "$$tmp/$$s.out" || { cat "$$tmp/$$s.out"; exit 1; }; \
		cat "$$tmp/$$s.out"; \
	done; \
	{ printf '{\n  "schemaVersion": 2,\n  "gitSHA": "%s",\n  "cpus": %s,\n  "runs": [' \
		"$$(git rev-parse HEAD)" "$$(nproc)"; \
	  sep=; for s in 1 2 3; do \
		printf '%s\n    {"seed": %s, "result": %s}' "$$sep" $$s "$$(tail -n 1 "$$tmp/$$s.out")"; sep=,; \
	  done; \
	  printf '\n  ]\n}\n'; } > "$$tmp/bench.json"; \
	mv "$$tmp/bench.json" BENCH_serving.json; \
	echo "bench-serving: wrote BENCH_serving.json"

# bench-json snapshots the curated solver kernels into BENCH_solver.json
# (ns/op, allocs/op, git SHA) — the perf trajectory future PRs diff against.
# Three repetitions, per-benchmark minima recorded: the same estimator
# bench-gate compares with, so shared-vCPU noise cannot skew the baseline.
bench-json:
	$(GO) run ./cmd/benchjson -count 3 -out BENCH_solver.json

# bench-gate re-runs the gain-kernel benchmarks and fails on regression
# against the committed BENCH_solver.json: >25% ns/op drift or any allocs/op
# growth. Three repetitions, gated on the per-benchmark minimum (transient
# scheduler noise only ever pushes a measurement up); benchtime inherits the
# snapshot's so cold-start amortization matches.
bench-gate:
	$(GO) run ./cmd/benchjson -quiet -gate BENCH_solver.json -tolerance 0.25 \
		-count 3 -bench '^BenchmarkGainKernels$$'

# profile boots the real daemon, drives labeled solves under a
# server-side CPU capture armed through /debug/profilez, and asserts the
# decoded profile carries the solver's pprof labels
# (graph/strategy/endpoint/k_bucket) — the end-to-end check that
# continuous profiling attributes samples to workloads.
profile:
	$(GO) test -count=1 -run '^TestProfileCaptureE2E$$' -v ./cmd/prefcoverd

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the pre-merge gate: static checks, full build and tests (including
# the race detector — the jobs/cache/store subsystems are concurrency-heavy —
# and the multi-seed chaos suites via test-race), coverage floors on the
# COVER_PKGS packages, the statusz/metrics daemon smoke test, the cluster
# smoke test (real nodes + gateway, kill-one-node failover), plus a smoke
# run of the benchmark harness (tiny benchtime; result discarded), and
# the bench-gate regression check of the gain kernels against the committed
# BENCH_solver.json snapshot. bench/ is its own module, outside ./..., so it
# is vetted, built and tested separately: an API change that breaks the
# serving benchmark fails here instead of in the benchmark run, and its
# TestSmoke runs every workload briefly on small graphs, untraced and
# traced, with the correctness oracle on.
ci: vet fmt-check build test test-race cover smoke cluster-smoke
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./...
	cd bench && $(GO) test ./...
	$(GO) run ./cmd/benchjson -quiet -benchtime 1x \
		-bench '^(BenchmarkGainKernels|BenchmarkFig4aGreedySmall|BenchmarkPublicSolve)$$' \
		-out $(or $(TMPDIR),/tmp)/prefcover-bench-smoke.json
	$(MAKE) bench-gate
	@echo "ci: all gates passed"
