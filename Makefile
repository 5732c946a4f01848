# Tool pins — keep in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION := 2024.1.1

# internal/lint is written against the stable go/analysis API shapes
# but implemented stdlib-only — including cross-package facts, which
# travel through the go command's vetx files exactly as the x/tools
# unitchecker moves them — so the module needs no x/tools requirement
# and builds fully offline. If the suite ever needs SSA or the real
# multichecker, migrate by pinning:
#
#     go get golang.org/x/tools@v0.24.0
#
# and swapping internal/lint's Analyzer/Pass/Fact types for the
# x/tools ones (the fields match deliberately).

GO ?= go

.PHONY: all build test race lint vet ffcvet staticcheck fmt bench bench-kernel bench-fluid chaos serve-smoke bench-serve cluster-smoke bench-cluster clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The same gate CI's analysis job applies (minus the -race pass):
# the repo's own nine-analyzer suite — six syntactic rules plus the
# dataflow taint/ctxflow/lockcheck analyzers with cross-package facts
# (docs/ANALYSIS.md) — go vet, and a pinned staticcheck.
lint: ffcvet vet staticcheck

ffcvet:
	$(GO) run ./cmd/ffcvet ./...

vet:
	$(GO) vet ./...

# Runs the pinned staticcheck via `go run`, which needs network access
# on the first use; offline, install staticcheck@$(STATICCHECK_VERSION)
# on PATH and it is used instead.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

fmt:
	test -z "$$(gofmt -l .)"

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# bench-kernel (docs/PERFORMANCE.md): re-run the core micro-benchmarks
# — the prefix-sum kernel sweeps and the BenchmarkRun size ladder up to
# N=262144 — and write the machine-readable record the repo versions
# alongside the code (mirrors bench-serve). BENCH_KERNEL_OUT overrides
# the report path.
BENCH_KERNEL_OUT ?= BENCH_PR7.json

bench-kernel:
	BENCH_JSON=$(BENCH_KERNEL_OUT) $(GO) test -run TestWriteBenchJSON -count=1 -v .
	@echo "bench-kernel: wrote $(BENCH_KERNEL_OUT)"

# bench-fluid (docs/FLUID.md): the discrete-vs-fluid wall-time ladder
# — 100-step discrete runs expanded per connection up to N=262144,
# fluid steady-state solves up to N=1e7 — written as the versioned
# machine-readable record. The emitter asserts the N=1e7 fluid solve
# under its 10 ms acceptance bound before writing.
# BENCH_FLUID_OUT overrides the report path.
BENCH_FLUID_OUT ?= BENCH_PR10.json

bench-fluid:
	BENCH_JSON=$(abspath $(BENCH_FLUID_OUT)) $(GO) test -run TestWriteFluidBenchJSON -count=1 -v ./internal/fluid/
	@echo "bench-fluid: wrote $(BENCH_FLUID_OUT)"

# Fault-injection smoke (docs/ROBUSTNESS.md): the injector and
# recovery suites, the ffsweep kill/resume round trip, the E22
# robustness experiment, an ffc -fault matrix across two topologies,
# and a short seed-corpus fuzz of the fault-spec parser.
chaos:
	$(GO) test -count=1 ./internal/fault/ ./internal/recovery/
	$(GO) test -run 'TestCheckpoint' -count=1 ./cmd/ffsweep/
	$(GO) test -run 'TestE22' -count=1 ./internal/experiments/
	$(GO) run ./cmd/ffc -topology single -n 4 -steps 2000 \
		-fault "seed=3,loss=0.5@50-120,outage=0@150-170" >/dev/null
	$(GO) run ./cmd/ffc -topology parkinglot -hops 3 -steps 4000 \
		-fault "seed=5,noise=0.1@20-200,churn=0@100-300" >/dev/null
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/fault/

# Daemon smoke (docs/SERVING.md): the result cache's -race suite with
# its ≥10× hit-latency bound, the full HTTP surface (byte-identical
# cache hits, singleflight under concurrent identical requests, 429
# backpressure, graceful-shutdown drain under in-flight load), and the
# ffcd boot→POST×2→SIGTERM round trip — all under the race detector —
# then 10 s each of the scenario loader's fuzz target, the request
# decoder's differential one (its fast path against encoding/json;
# without minimizing new inputs, which on its 25 KB seeds would take
# most of the 10 s), the /run front end's (bare and envelope bodies;
# status 200/400/422; every cached key's body built), and the report
# writer's differential one (obs.RunReport.AppendJSON against
# json.MarshalIndent; unminimized for the same reason: its seeds are
# 7–47 KB solved reports).
serve-smoke:
	$(GO) test -race -count=1 ./internal/runcache/ ./internal/serve/ ./cmd/ffcd/
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 0 ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzRunRequest -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzRunReportJSON -fuzztime 10s -fuzzminimizetime 0 ./internal/obs/

# bench-serve (docs/OBSERVABILITY.md): boot a local ffcd, drive the
# documented open-loop ramp with ffload, and write the versioned
# bench-serve/v1 trajectory point. BENCH_SERVE_OUT and
# BENCH_SERVE_STAGES override the report path and the ramp; the
# daemon's port is fixed so a stray instance fails fast instead of
# being measured by accident.
BENCH_SERVE_OUT    ?= BENCH_SERVE_PR6.json
BENCH_SERVE_STAGES ?= 200x2s,400x2s,800x2s
BENCH_SERVE_ADDR   ?= 127.0.0.1:18931

bench-serve:
	$(GO) build -o bin/ffcd ./cmd/ffcd
	$(GO) build -o bin/ffload ./cmd/ffload
	@set -e; \
	./bin/ffcd -addr $(BENCH_SERVE_ADDR) -workers 0 -queue 256 & \
	FFCD_PID=$$!; \
	trap 'kill $$FFCD_PID 2>/dev/null || true' EXIT; \
	./bin/ffload -url http://$(BENCH_SERVE_ADDR) \
		-stages '$(BENCH_SERVE_STAGES)' -corpus 64 -seed 1 -zipf-s 1.3 \
		-require-hit-ratio 0.2 -out $(BENCH_SERVE_OUT); \
	kill $$FFCD_PID 2>/dev/null || true; \
	wait $$FFCD_PID 2>/dev/null || true
	@echo "bench-serve: wrote $(BENCH_SERVE_OUT)"

# Gateway smoke (docs/CLUSTER.md): the cluster package's deterministic
# unit suite — ring remap bounds, breaker lifecycle, retry/hedge
# schedules on a fake clock, batch fan-out — under the race detector,
# plus the subprocess integration tests: two real replicas behind a
# real ffcgw with byte-identical sharded hits and a clean SIGTERM
# drain, and the chaos contract (SIGKILL one of three replicas
# mid-load, zero client-visible failures, only the dead shard remaps).
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -run 'TestGateway(Smoke|Chaos)' -count=1 ./cmd/ffcgw/

# bench-cluster (docs/CLUSTER.md): drive the same zipf workload through
# gateways fronting 1-, 2-, and 4-replica pools whose per-replica
# caches hold a quarter of the corpus — the aggregate hit ratio must
# climb with replica count — then SIGKILL one of three replicas under
# load and record the recovery. Writes the versioned bench-cluster/v1
# report; BENCH_CLUSTER_OUT overrides the path.
BENCH_CLUSTER_OUT ?= BENCH_SERVE_PR9.json

bench-cluster:
	BENCH_CLUSTER_OUT=$(BENCH_CLUSTER_OUT) $(GO) test -run TestWriteBenchCluster -count=1 -v ./cmd/ffcgw/
	@echo "bench-cluster: wrote $(BENCH_CLUSTER_OUT)"

clean:
	$(GO) clean ./...
	rm -rf bin
