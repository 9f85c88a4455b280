# Development entry points. `make test` is the tier-1 verify; `make lint`
# is the full static-analysis suite; `make ci` is everything the CI
# workflow gates on. See docs/DEVELOPING.md.

GO ?= go

.PHONY: all build test race checks lint lint-flow fuzz gen-checks bench bench-harness serve ci

all: build test lint

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 verify — build plus the full test suite
test: build
	$(GO) test ./...

## race: full test suite under the race detector, then the SpMV pool
## and the windowed uniformisation loop (reused dispatch records, per-
## product parallel dispatch) a second time. Race builds leave out the
## amd64 assembly band kernel, so every band access goes through the
## instrumented Go passes.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/sparse ./internal/ctmc

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
## traceparent parsers and the banded-against-CSR product check; raise
## FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz='^FuzzParseDirective$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint
	$(GO) test -fuzz='^FuzzParseContract$$' -fuzztime=$(FUZZTIME) -run='^$$' ./tools/numlint/internal/summary
	$(GO) test -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/obs
	$(GO) test -fuzz='^FuzzBandedMatchesCSR$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sparse

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

## serve: run the batlifed HTTP daemon locally (override the listen
## address with ADDR, e.g. `make serve ADDR=:9000`). See docs/SERVICE.md.
ADDR ?= :8418
serve:
	$(GO) run ./cmd/batlifed -addr $(ADDR)

## ci: everything the CI workflow gates on
ci: lint lint-flow build test race checks bench-harness
