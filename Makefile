# Tier-1 gate: everything a PR must keep green (see ROADMAP.md).
.PHONY: check fmt vet build test bench bench-micro bench-json bench-delta \
	bench-history chaos fuzz smoke-server chaos-server perfbench-check

check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

# The benchmark is a nested module (perfbench/go.mod) that the root
# `go build ./...` does not compile: vet and test it so a driver API change
# cannot break the benchmark unnoticed (includes TestDefaultSeedDigests).
perfbench-check:
	cd perfbench && go vet ./... && go test -count=1 ./...

# Fault-injection suite: the deterministic chaos tests (panic isolation,
# budget trips, worker-count determinism, and the seeded sweep) under -race,
# plus a seeded chaos run of the tracer CLI on a real program.
chaos:
	go test -race -count=1 -run 'Chaos|PanicIsolation|DeadlineMidPhase|PartialStats' \
		./internal/core/ -v
	go test -race -count=1 ./internal/faultinject/ ./internal/budget/ -v
	go run ./cmd/benchgen -dir /tmp -name tsp
	go run ./cmd/tracer -chaos-seed 7 -chaos-rate 0.2 -auto -batch -batch-workers 4 /tmp/tsp.tir

# Differential fuzzing: the oracle package's fixed-seed property and
# metamorphic suites under -race, then a seeded CLI sweep of the brute-force
# oracle on every client ("Ground truth & fuzzing" in ARCHITECTURE.md).
# Override for longer hunts, e.g.:  make fuzz FUZZ_SEED=900000 FUZZ_N=100000
FUZZ_SEED ?= 1
FUZZ_N    ?= 5000
fuzz:
	go test -race -count=1 ./internal/oracle/... -v
	DECODER_FUZZ_N=$(FUZZ_N) go test -race -count=1 \
		-run 'TestDecoderSeededFuzz|FuzzDecodeRequest' ./internal/server/ -v
	go run ./cmd/tracer -fuzz-seed $(FUZZ_SEED) -fuzz-n $(FUZZ_N) -fuzz-meta

# Daemon smoke: boot tracerd on an ephemeral port, replay a small corpus via
# traceload with verdict verification (100% success required), SIGTERM, and
# require a clean graceful drain.
smoke-server:
	scripts/server_smoke.sh

# Daemon chaos soak: traceload at high concurrency against tracerd under
# seeded fault injection — zero process deaths, zero wrong verdicts, only
# failed/exhausted/429/503 degradation, clean drain.
chaos-server:
	scripts/chaos_server.sh

# Scaled-down run of every table/figure benchmark plus micro-benchmarks.
bench:
	go test -bench=. -benchmem -run xxx .

# Perf-kernel microbenchmarks with allocs/op — the regression gate for the
# interned DNF kernel's hot paths (Approx, WpDNF, Simplify) and the
# incremental minimum-model solver's warm/fresh resolve loop.
bench-micro:
	go test -run=NONE -bench 'Approx|WpDNF|Simplify' -benchmem ./internal/formula/...
	go test -run=NONE -bench 'MinimumIncremental' -benchmem ./internal/minsat/...

# Regenerate the checked-in perf-trajectory series (github-action-benchmark
# shape). Scaled-down budget so it finishes in a couple of minutes.
bench-json:
	go run ./cmd/paperbench -iters 100 -timeout 1s -bench-json BENCH_paperbench.json

# Perf gate (also a CI job): re-measure with the bench-json budget and fail
# when a gated experiment wall regressed beyond its per-experiment threshold
# (see scripts/bench_delta.sh for the thresholds).
bench-delta:
	scripts/bench_delta.sh

# Append the current BENCH_paperbench.json to the committed perf-trajectory
# ledger (BENCH_HISTORY.json) and rewrite the trend table in EXPERIMENTS.md.
# Idempotent per commit; CI verifies the ledger stays in sync via
# `benchhistory -verify`.
bench-history:
	go run ./cmd/benchhistory
