# Standard entry points for the reproduction.

GO ?= go

.PHONY: all build test test-race vet fmt-check smoke bench bench-json bench-gate serve experiments examples clean

# The tracked benchmark set: the compile-once/simulate-many split (cold
# vs warm core.Run, an 8-way Images sweep), the never-seen compile a
# server pays (CoreRunMiss, and CoreRunMissVariants for the model-parallel
# and hybrid schedules) and its trainer-construction layer (TrainNew),
# plus the service's warm hit path (preserialized byte cache). The
# committed BENCH_<date>.json floor these; `make bench-gate` enforces it
# (a benchmark the baseline lacks is reported, not gated).
BENCH_SET    := BenchmarkCoreRun(Cold|Warm|Many8|Miss|MissVariants)$$|BenchmarkServiceCacheHit$$|BenchmarkTrainNew$$
BENCH_BASE   ?= BENCH_2026-10-16.json
MAX_REGRESS  ?= 35%

all: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (CI's "Bench harness" step); it imports the
# simulator's packages, so an API change can break only it.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# The worker pool and result cache are concurrent code; the race
# detector gates them (CI runs this).
test-race:
	$(GO) test -race ./...

# Fail if any file is not gofmt-formatted (CI runs this).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Build the daemon, start it, and exercise the observability surface
# end to end (traced request, /v1/trace, /metrics, pprof).
smoke:
	./scripts/smoke.sh

# Run the simulation service (see README "Running the server").
serve:
	$(GO) run ./cmd/dgxsimd

# One testing.B benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem

# Snapshot the tracked performance baseline as BENCH_<date>.json for
# commit-over-commit comparison. README "Performance" explains the
# numbers. Refreshing the baseline is an intentional act: run this,
# commit the new file, and point BENCH_BASE (below) at it.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -date $$(date +%F) > BENCH_$$(date +%F).json
	@cat BENCH_$$(date +%F).json

# Perf regression gate (CI runs this): run the tracked set 3x, fold to
# best-of-3 per benchmark, and fail if ns/op or allocs/op regressed more
# than MAX_REGRESS against the committed $(BENCH_BASE). The fresh
# snapshot lands in bench-fresh.json (CI uploads it as an artifact).
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -diff $(BENCH_BASE) -max-regress $(MAX_REGRESS) > bench-fresh.json

# Regenerate every paper artifact (tables and figures) on stdout.
experiments:
	$(GO) run ./cmd/experiments

# Run every example binary once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/comparecomm
	$(GO) run ./examples/memoryplan
	$(GO) run ./examples/customnet
	$(GO) run ./examples/asgd
	$(GO) run ./examples/whatif
	$(GO) run ./examples/parallelism

clean:
	rm -f trace.json test_output.txt bench_output.txt bench-fresh.json
