# Reproducible local equivalents of the CI jobs. `make lint test` is
# what a PR must pass; `make fuzz-smoke` mirrors CI's fuzz job.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-cpu race benchmark-test examples bench bench-json determinism lint fmt-check vet stcc-vet fused-ops govulncheck fuzz-smoke experiments-doc serve serve-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages at one and four CPUs: worker pools,
# cancellation and error selection behave differently once goroutines
# really run in parallel, and a 1-CPU runner would hide that.
test-cpu:
	$(GO) test -cpu 1,4 ./internal/experiments ./internal/server

# internal/experiments is the slowest package under -race; run alone, it
# does not share a small runner's CPUs with the next slowest (the root
# package) and stays well inside go test's default timeout.
race:
	$(GO) test -race ./internal/experiments
	$(GO) test -race $$($(GO) list ./... | grep -vx 'repro/internal/experiments')

# The benchmark is a module of its own (benchmark/go.mod replaces repro
# with this checkout), so the root's build, vet and test never compile
# it. This vets and tests it against the checkout's sources; TestSmoke
# runs every workload at tiny sizes, traced and untraced.
benchmark-test:
	GOWORK=off $(GO) -C benchmark vet ./...
	GOWORK=off $(GO) -C benchmark test ./...

# Run every example program to completion (about 75 s on two CPUs) and
# fail on the first nonzero exit. go build ./... compiles them, but only
# a run shows a config that a validation rule refuses; they are also
# the facade's only non-test callers.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# Time the 256-node fabric and engine shapes CI gates (seconds, not the
# full trajectory report bench-json writes).
bench:
	$(GO) run ./cmd/stcc-bench -shapes '^(fabric|engine)/(idle|low|saturated)$$'

# Record a new benchmark-trajectory report, BENCH_$(BENCH_LABEL).json.
# Uses real benchtime (minutes, not a smoke run); see README.md
# ("Benchmark trajectory") for how to read BENCH_*.json. BENCH_LABEL has
# no default, so a bare run cannot overwrite a checked-in report. The
# newest checked-in report is the baseline the new one embeds and diffs
# against.
BENCH_BASELINE ?= BENCH_PR29.json
bench-json:
	$(if $(BENCH_LABEL),,$(error bench-json: set BENCH_LABEL to name the new report, e.g. make bench-json BENCH_LABEL=PR<n>))
	$(GO) run ./cmd/stcc-bench -label $(BENCH_LABEL) -repeat 3 -baseline $(BENCH_BASELINE) -out BENCH_$(BENCH_LABEL).json

# The determinism gate CI runs as its own job: the golden fingerprints
# (direct, across Runner worker counts, through engines built in the
# storage of the point before, through the result cache and the service)
# and the accepted-and-ignored shard fields, all under the race
# detector so a data race between concurrently running points fails the
# gate, not just a changed result.
determinism:
	$(GO) test -race -run 'TestDeterminism|TestShardFieldsAcceptedAndIgnored' .

# lint is the full static gate: formatting, the standard vet suite, the
# determinism-contract suite, the fused-op check, and (when the tool is
# available) govulncheck. The experiment-spec round trip is a tier-1
# test (TestRegistrySpecsRoundTrip), so `make test` runs it.
lint: fmt-check vet stcc-vet fused-ops govulncheck

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

# The Go compiler fuses x*y + z into one rounding on these targets, but
# not on amd64, where the determinism goldens run, so a fused op in a
# deterministic package could make a result depend on the host. This
# cross-compiles analyzers.DeterministicPackages for each target and
# fails on any fused multiply-add the compiler emits; a float64(...)
# conversion around the product rounds it and prevents the fusion. The
# -S listing replays from the build cache, so a warm run still shows
# every site.
FUSED_ARCHS := arm64 ppc64le s390x riscv64 loong64
fused-ops:
	@pkgs=$$(sed -n '/^var DeterministicPackages/,/^}/s/^[[:space:]]*"\(.*\)",$$/\1/p' internal/analyzers/analyzers.go); \
	[ -n "$$pkgs" ] || { echo "fused-ops: no package read from analyzers.DeterministicPackages" >&2; exit 1; }; \
	status=0; for arch in $(FUSED_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $$pkgs 2>&1) || { echo "$$asm" >&2; exit 1; }; \
		if fused=$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[A-Z]*[[:space:]]'); then \
			echo "fused-ops: GOARCH=$$arch fuses a multiply-add:" >&2; echo "$$fused" >&2; status=1; \
		fi; \
	done; exit $$status

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
# Raise FUZZTIME for a longer run. `go test -fuzz` exits 0 when its
# pattern matches no target, so each target is first looked up with
# -list and a missing one fails the run.
define fuzz
$(GO) test -list '^$(1)$$' $(2) | grep -qx '$(1)' || { echo "fuzz-smoke: no fuzz target $(1) in $(2)" >&2; exit 1; }
$(GO) test -run '^$$' -fuzz '^$(1)$$' -fuzztime $(FUZZTIME) $(2)
endef

fuzz-smoke:
	$(call fuzz,FuzzDORMeshRoute,./internal/topology)
	$(call fuzz,FuzzMinimalPorts,./internal/topology)
	$(call fuzz,FuzzLatencyAccounting,./internal/packet)
	$(call fuzz,FuzzSplitQuoted,./internal/analyzers/framework)
	$(call fuzz,FuzzWantComment,./internal/analyzers/framework)
	$(call fuzz,FuzzConfigJSON,./internal/sim)
	$(call fuzz,FuzzSourceQueues,./internal/sim)
	$(call fuzz,FuzzParseSubmission,./internal/experiments)
	$(call fuzz,FuzzScheduleSpec,./internal/traffic)
	$(call fuzz,FuzzCacheEntry,./internal/resultcache/fsstore)
