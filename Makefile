GO ?= go

.PHONY: all build test race vet lint fmt-check check chaos debug-smoke opt-check store-check serve-check bench bench-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis over the corpus and example programs: go vet plus the
# project's own IR linter. The corpus and clean.c must come back clean;
# dirty.c deliberately seeds one finding per checker and must NOT.
lint: vet
	$(GO) run ./cmd/irlint -corpus examples/lintdemo/clean.c
	@if $(GO) run ./cmd/irlint examples/lintdemo/dirty.c >/dev/null 2>&1; then \
		echo "irlint: examples/lintdemo/dirty.c should have findings"; exit 1; \
	else \
		echo "irlint: dirty.c findings detected (expected)"; \
	fi

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check:
	./scripts/check.sh

# The fault-injection chaos suite: sweep fault plans across every injection
# point of the full pipeline under -race, plus the error-path contract tests
# and the internal/par masking regression tests.
chaos:
	./scripts/check.sh chaos

# Drive the live /debug HTTP surface: a race-instrumented studysim run is
# stretched with a delay-only fault plan, every /debug endpoint is scraped
# mid-run (must answer 200 with a parseable payload), and stdout must stay
# byte-identical to a clean run.
debug-smoke:
	./scripts/check.sh debug-smoke

# The optimizer gate: the compile/opt unit + differential suites under
# -race, 10 s of FuzzOptimizeObject, a clean `irlint -corpus -opt 2`,
# dirty.c's seeded dead stores deleted at -opt 1, and byte-identical
# studysim output at -O0.
opt-check:
	./scripts/check.sh opt

# The model-store gate: the store's single-flight/fault tests plus the
# streaming determinism matrix and the shared-model telemetry test under
# -race, then a studysim identity sweep — -no-model-cache and jobs 1 vs 8
# must hash identical to the flagless run.
store-check:
	./scripts/check.sh store

# The serving gate: the serve package's admission/e2e suites and
# the modelstore storm test under -race, then a live smoke — served on an
# ephemeral port, a zero-error loadgen run over every endpoint, the
# serve.request series on /debug/metrics, /v1/study byte-identical to the
# studysim CLI at seed 26, an annotated -O2 /v1/decompile of
# examples/lintdemo/dirty.c byte-identical to the decompile CLI, and a
# clean SIGTERM drain.
serve-check:
	./scripts/check.sh serve

# The repository benchmark (perfbench/, declared in BENCHMARK.json): each
# workload builds served and the driver from this checkout and prints a
# JSON report of latency, capacity, CPU and memory per operation. Go
# micro-benchmarks are plain `go test -run NONE -bench <regexp> -benchmem`.
bench:
	bash perfbench/run.sh --workload study
	bash perfbench/run.sh --workload serve_snippets
	bash perfbench/run.sh --workload serve_sources

# One iteration of every benchmark — catches bit-rot in the bench suite
# without the cost of a real measurement run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
