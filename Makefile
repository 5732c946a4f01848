# Tool pins — keep in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION := 2024.1.1

# internal/lint is written against the stable go/analysis API shapes
# but implemented stdlib-only, speaking the go command's vettool
# protocol as the x/tools unitchecker does, so the module needs no
# x/tools requirement and builds fully offline. If the suite ever needs SSA or the real
# multichecker, migrate by pinning:
#
#     go get golang.org/x/tools@v0.24.0
#
# and swapping internal/lint's Analyzer/Pass types for the x/tools
# ones (the fields match deliberately).

GO ?= go

.PHONY: all build test race lint vet ffcvet staticcheck fmt bench bench-check chaos serve-smoke cluster-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The same gate CI's analysis job applies (minus the -race pass):
# the repo's own eight-analyzer suite — six syntactic rules plus the
# dataflow ctxflow/lockcheck analyzers (docs/ANALYSIS.md) — go vet,
# and a pinned staticcheck.
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

# bench-check (ffbench/README.md): one short repository-benchmark run
# per workload, failing unless every summary line reads correct with
# no failed request. Run it before proposing a change. It is kept out
# of CI on purpose: a single hedged request on a loaded shared runner
# fails a pool-churn run.
BENCH_CHECK_WORKLOADS ?= solve-hetero serve-hot pool-churn
bench-check:
	@for w in $(BENCH_CHECK_WORKLOADS); do \
		out=$$(bash ffbench/run.sh --workload $$w --seed 1 --seconds 8 --trace 0) || exit 1; \
		if printf '%s\n' "$$out" | tail -n 1 | grep -Eq '^\{"correct":true,"attempted":[0-9]+,"failed":0,'; then \
			echo "bench-check: $$w ok"; \
		else \
			printf '%s\n' "$$out"; echo "bench-check: $$w failed its checks" >&2; exit 1; \
		fi; \
	done

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

clean:
	$(GO) clean ./...
	rm -rf bin
