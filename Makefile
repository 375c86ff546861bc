# Reproducible local equivalents of the CI jobs. `make lint test` is
# what a PR must pass; `make fuzz-smoke` mirrors CI's fuzz job.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-cpu race bench bench-json determinism lint fmt-check vet stcc-vet govulncheck fuzz-smoke spec-roundtrip experiments-doc serve serve-smoke cluster-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages at one and four CPUs: worker pools,
# cancellation and error selection behave differently once goroutines
# really run in parallel, and a 1-CPU runner would hide that.
test-cpu:
	$(GO) test -cpu 1,4 ./internal/experiments ./internal/server ./internal/dispatch

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Regenerate the checked-in benchmark-trajectory report. Uses real
# benchtime (minutes, not a smoke run); see README.md ("Benchmark
# trajectory") for how to read BENCH_*.json. The previous trajectory
# point is the baseline the report embeds and diffs against.
BENCH_LABEL ?= PR14
BENCH_BASELINE ?= BENCH_PR10.json
bench-json:
	$(GO) run ./cmd/stcc-bench -label $(BENCH_LABEL) -repeat 3 -baseline $(BENCH_BASELINE) -out BENCH_$(BENCH_LABEL).json

# The determinism gate CI runs as its own job: the golden fingerprints
# (direct, across Runner worker counts, through the result cache, the
# service and peer dispatch) and the accepted-and-ignored shard fields,
# all under the race detector so a data race between concurrently
# running points fails the gate, not just a changed result.
determinism:
	$(GO) test -race -run 'TestDeterminism|TestShardFieldsAcceptedAndIgnored' .

# lint is the full static gate: formatting, the standard vet suite, the
# determinism-contract suite, the experiment-spec round trip, and (when
# the tool is available) govulncheck.
lint: fmt-check vet stcc-vet spec-roundtrip govulncheck

# Emit every registry experiment's spec at both scales, re-parse it, and
# require an unchanged content fingerprint (CI runs this too).
spec-roundtrip:
	$(GO) run ./cmd/stcc spec-roundtrip

# Regenerate the registry-derived catalog section of EXPERIMENTS.md.
experiments-doc:
	$(GO) run ./cmd/stcc experiments-doc

# Run the experiment service daemon locally; see README.md ("Running as
# a service") for the API walkthrough.
SERVE_ADDR ?= 127.0.0.1:8080
SERVE_CACHE ?= results/cache
serve:
	$(GO) run ./cmd/stcc-serve -addr $(SERVE_ADDR) -cache $(SERVE_CACHE)

# Boot stcc-serve, drive every endpoint plus one tiny job, and drain it
# (CI runs this after the unit tests).
serve-smoke:
	bash scripts/serve_smoke.sh

# Boot two peer daemons, farm a sweep across them, and require the
# merged output byte-identical to a local run — healthy, degraded (one
# dead peer), and remote-result-store paths. See README.md ("Running a
# cluster").
cluster-smoke:
	bash scripts/cluster_smoke.sh

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The custom determinism-contract analyzers; see README.md
# ("Determinism contract") for the rules and internal/analyzers for the
# implementation. Exits 2 on any finding; a reviewed exception is an
# in-source directive with a reason (//stcc:maporder, //stcc:hotalloc).
stcc-vet:
	$(GO) run ./cmd/stcc-vet ./...

# govulncheck needs network access to fetch the vuln DB and is not baked
# into every dev container; run it when present, say so when not. CI
# installs it explicitly.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Native Go fuzzing: each target gets a short deterministic-budget run.
# Raise FUZZTIME for a real session.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDORMeshRoute$$' -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzMinimalPorts$$' -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzFlitFraming$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzLatencyAccounting$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzSplitQuoted$$' -fuzztime $(FUZZTIME) ./internal/analyzers/framework
	$(GO) test -run '^$$' -fuzz '^FuzzWantComment$$' -fuzztime $(FUZZTIME) ./internal/analyzers/framework
	$(GO) test -run '^$$' -fuzz '^FuzzConfigJSON$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleSpec$$' -fuzztime $(FUZZTIME) ./internal/traffic
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/resultcache/fsstore
