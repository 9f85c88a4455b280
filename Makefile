# Development entry points. `make test` is the tier-1 verify; `make lint`
# is the full static-analysis suite; `make ci` is everything the CI
# workflow gates on. See docs/DEVELOPING.md.

GO ?= go

.PHONY: all build test race checks lint lint-flow fuzz fuzz-banded fuzz-rows fuzz-window gen-checks bench bench-harness examples serve ci

all: build test lint

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 verify — build plus the full test suite
test: build
	$(GO) test ./...

## race: full test suite under the race detector, then a second roll of
## the most concurrency-dense packages: the observability layer (tracer
## ring, exemplar CAS), the service stack (admission, coalesced waiters,
## drain; an abandoned job's capacity must be free before its waiters
## wake, rolled ten times), and the SpMV pool with the windowed
## uniformisation loop (reused dispatch records and window plans, a
## solve split between its caller and a lent worker that meet at a
## barrier each step; the strand tests rolled ten times). Race builds
## leave out the amd64 assembly band kernel, so every band access goes
## through the instrumented Go passes.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/obs
	$(GO) test -race -count=2 ./internal/api ./internal/service ./cmd/batlifed
	$(GO) test -race -count=10 -run 'TestAbandonedJobIsCancelled$$' ./internal/service
	$(GO) test -race -count=2 ./internal/sparse ./internal/ctmc
	$(GO) test -race -count=10 -run '^(TestLendOneAtATime|TestStrandRunsEveryGeneration|TestStrandPanicReachesCaller|TestStrandGivenBackMidStep|TestCloseReclaimsBusyStrand|TestPoolCloseReleasesWorkers)$$' ./internal/sparse
	$(GO) test -race -count=10 -run '^(TestTwoStrandsMatchOne|TestTwoStrandsConcurrentSolves|TestTwoStrandSolveCancelled|TestBandedParallelMatchesCSR)$$' ./internal/ctmc

## checks: full test suite with the runtime invariant layer compiled in
checks:
	$(GO) test -tags debugchecks ./...

## lint: gofmt and go vet (both tag configurations), plus vet on arm64
## and a 386 build, so the Go fallback of the amd64 assembly kernel keeps
## compiling (vet's asmdecl check covers the assembly frames on amd64)
lint:
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed for:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -tags debugchecks ./internal/check
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

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
## traceparent parsers, the banded-against-CSR product check, the
## Q* rows-against-reference check and the window's incremental
## regrow-and-replan check; raise FUZZTIME for a longer run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz='^FuzzParseDirective$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint
	$(GO) test -fuzz='^FuzzParseContract$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint/internal/summary
	$(GO) test -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/obs
	$(GO) test -fuzz='^FuzzBandedMatchesCSR$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sparse
	$(GO) test -fuzz='^FuzzRowsMatchReference$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	$(GO) test -fuzz='^FuzzWindowReplan$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ctmc

## gen-checks: regenerate the runtime contract shims from //numlint:
## requires/ensures directives (see docs/STATIC_ANALYSIS.md).
gen-checks:
	$(GO) run ./tools/numlint -gen-checks

## bench: run every benchmark once (smoke); pass BENCHTIME for real runs.
## Work and allocation counts are gated by TestWorkCounts in `make test`;
## timing claims go through `bash bench/run.sh -compare`.
BENCHTIME ?= 1x
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run='^$$' ./...

## bench-harness: vet and test the end-to-end benchmark harness. bench/
## is a module of its own, so the ./... patterns above do not reach it,
## yet it calls into the solver's internal packages.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## examples: run every program under examples/ to completion (about
## 10 s in all on 2 vCPUs); each must exit 0. Besides cmd/, they are the
## only whole programs that use the public API, and `build` only
## compiles them.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

## serve: run the batlifed HTTP daemon locally (override the listen
## address with ADDR, e.g. `make serve ADDR=:9000`). See docs/SERVICE.md.
ADDR ?= :8418
serve:
	$(GO) run ./cmd/batlifed -addr $(ADDR)

## fuzz-banded, fuzz-rows, fuzz-window: the CI fuzz step — 20 s of
## generated inputs for the banded-against-CSR product check, 10 s for
## Q*'s closed-form rows against the reference builder and 10 s for the
## window's incremental regrow and replan against fresh ones.
fuzz-banded:
	$(GO) test -run='^$$' -fuzz='^FuzzBandedMatchesCSR$$' -fuzztime=20s ./internal/sparse

fuzz-rows:
	$(GO) test -run='^$$' -fuzz='^FuzzRowsMatchReference$$' -fuzztime=10s ./internal/core

fuzz-window:
	$(GO) test -run='^$$' -fuzz='^FuzzWindowReplan$$' -fuzztime=10s ./internal/ctmc

## ci: everything the CI workflow gates on, including its one-iteration
## benchmark smoke (`make bench` at the default BENCHTIME)
ci: lint lint-flow build test race checks fuzz-banded fuzz-rows fuzz-window bench-harness examples bench
