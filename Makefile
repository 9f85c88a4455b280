# Development entry points. `make test` is the tier-1 verify; `make lint`
# is the full static-analysis suite; `make ci` is everything the CI
# workflow gates on. See docs/DEVELOPING.md.

GO ?= go

.PHONY: all build test race checks lint lint-flow fuzz gen-checks bench bench-gate bench-baseline bench-harness serve ci

all: build test lint

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 verify — build plus the full test suite
test: build
	$(GO) test ./...

## race: full test suite under the race detector, then the SpMV pool
## and the windowed uniformisation loop (reused dispatch records, per-
## product parallel dispatch) a second time
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/sparse ./internal/ctmc

## checks: full test suite with the runtime invariant layer compiled in
checks:
	$(GO) test -tags debugchecks ./...

## lint: gofmt and go vet (both tag configurations)
lint:
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed for:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -tags debugchecks ./internal/check

## lint-flow: the numlint analyzer suite over the whole module, gated on
## the committed baseline (only findings absent from
## .numlint-baseline.json fail), after vetting and race-testing the
## analyzers themselves. See docs/STATIC_ANALYSIS.md.
lint-flow:
	$(GO) vet ./tools/...
	$(GO) test -race ./tools/numlint/...
	$(GO) run ./tools/numlint -verify-gen-checks
	$(GO) run ./tools/numlint -baseline .numlint-baseline.json ./...

## fuzz: short fuzzing smoke over the directive, contract-grammar, and
## traceparent parsers; raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz='^FuzzParseDirective$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint
	$(GO) test -fuzz='^FuzzParseContract$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint/internal/summary
	$(GO) test -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/obs

## gen-checks: regenerate the runtime contract shims from //numlint:
## requires/ensures directives (see docs/STATIC_ANALYSIS.md).
gen-checks:
	$(GO) run ./tools/numlint -gen-checks

## bench: run every benchmark once (smoke); pass BENCHTIME for real runs.
## The Solver benchmarks (cached reuse, parallel sweep) additionally land
## in BENCH_solver.json, the telemetry overhead benchmark (instrumented
## vs uninstrumented solves) in BENCH_obs.json, and the request-scoped
## tracing overhead benchmark (disabled / enabled / traced-context warm
## solves) in BENCH_trace.json, for machine comparison across commits.
## The SpMV runtime benchmarks (persistent pool vs spawn-per-product,
## fused and batched kernels) land in BENCH_spmv.json; BENCHCOUNT > 1
## repeats each benchmark so the gate's min-of-N filters scheduler noise.
BENCHTIME ?= 1x
BENCHCOUNT ?= 1
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run='^$$' ./...
	$(GO) test -bench='BenchmarkSolverCachedReuse|BenchmarkSweepParallel' \
		-benchtime=$(BENCHTIME) -run='^$$' -json . > BENCH_solver.json
	$(GO) test -bench='^BenchmarkObsOverhead$$' \
		-benchtime=$(BENCHTIME) -run='^$$' -json . > BENCH_obs.json
	$(GO) test -bench='^BenchmarkTraceOverhead$$' \
		-benchtime=$(BENCHTIME) -run='^$$' -json . > BENCH_trace.json
	$(GO) test -bench='^BenchmarkUniformizedSpMV' -count=$(BENCHCOUNT) \
		-benchtime=$(BENCHTIME) -run='^$$' -json ./internal/sparse > BENCH_spmv.json

## bench-gate: fail if the SpMV benchmarks regressed against the
## committed BENCH_BASELINE.json (tolerance lives in the baseline;
## override per-run with `go run ./tools/benchgate -tolerance 0.2 ...`).
## Run `make bench` first (or let this target's dependency do it).
bench-gate: bench
	$(GO) run ./tools/benchgate -baseline BENCH_BASELINE.json BENCH_spmv.json

## bench-baseline: refresh the committed benchmark baseline from a fresh
## measurement on this machine. Use real repetitions, then commit the
## result: `make bench-baseline BENCHTIME=2s BENCHCOUNT=5`.
bench-baseline: bench
	$(GO) run ./tools/benchgate -baseline BENCH_BASELINE.json -write-baseline BENCH_spmv.json

## bench-harness: vet and test the end-to-end benchmark harness. bench/
## is a module of its own, so the ./... patterns above do not reach it,
## yet it calls into the solver's internal packages.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## serve: run the batlifed HTTP daemon locally (override the listen
## address with ADDR, e.g. `make serve ADDR=:9000`). See docs/SERVICE.md.
ADDR ?= :8418
serve:
	$(GO) run ./cmd/batlifed -addr $(ADDR)

## ci: everything the CI workflow gates on
ci: lint lint-flow build test race checks bench-harness
