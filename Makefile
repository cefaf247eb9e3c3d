# Developer entry points for the peerlearn reproduction.

GO ?= go

.PHONY: all build test test-short race bench peerbench perfbench-test bench-smoke figures verify fmt vet lint lint-fix audit fuzz-smoke cover sim-smoke recovery-smoke peerload load-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Full performance-regression sweep (includes the n=10⁶ raw-speed
# entries); refreshes the committed baseline.
peerbench:
	$(GO) run ./cmd/peerbench -out BENCH_9.json

# Tests of the repo benchmark's correctness checks. perfbench/ is a
# nested module, so the root `go test ./...` never reaches them.
perfbench-test:
	cd perfbench && $(GO) test ./...

# CI-sized sweep compared against the committed baseline (what the
# bench-smoke CI job runs at both GOMAXPROCS=1 and GOMAXPROCS=4); fails
# on a >25% ns/op regression or a serial-vs-parallel bit mismatch.
bench-smoke:
	$(GO) run ./cmd/peerbench -quick -out bench-quick.json -compare BENCH_9.json

# Refresh the committed serving-path latency baseline: the canonical
# deterministic smoke configuration (virtual clock, so every latency is
# a pure function of the seed and the report is byte-stable).
peerload:
	$(GO) run ./cmd/peerload -deterministic -seed 1 -schedule constant:500 -ops 4000 -sessions 16 -out BENCH_10.json

# Serving-path latency gate (the load-smoke CI job): byte-stability
# across two deterministic runs, entry-for-entry comparison against the
# committed BENCH_10.json at zero regression budget, absolute p99 SLOs,
# and a short concurrent real-clock phase.
load-smoke:
	bash scripts/load-smoke.sh

# Regenerate every paper figure at full size into results/.
figures:
	$(GO) run ./cmd/benchfig -fig all -out results

# Check the machine-checkable paper claims against freshly generated data.
verify:
	$(GO) run ./cmd/benchfig -verify

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project-specific peerlint suite,
# test files included (ctxleak, determinism, floateq, goleak,
# guardedby, hotalloc, lockheld, mhp, modeswitch, panicfree,
# randsource, unlockpath — see docs/LINTERS.md).
lint: vet
	$(GO) run ./cmd/peerlint -tests ./...

# Apply peerlint's suggested fixes (defer insertions) in place.
lint-fix:
	$(GO) run ./cmd/peerlint -fix -tests ./...

# Inventory of every //peerlint:allow suppression with its
# justification, plus the module's contract directives (guardedby
# fields, hotpath and deterministic roots); fails if any allow lacks a
# reason.
audit:
	$(GO) run ./cmd/peerlint -tests -audit ./...

# Short fuzzing pass over every fuzz target, one at a time (the fuzz
# engine accepts a single -fuzz target per package invocation).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz=FuzzApplyRoundInvariants -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzGroupingValidate -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzTheorem3FastMatchesNaive -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzRadixSortDesc -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/ledger
	$(GO) test -fuzz=FuzzSessionReplay -fuzztime=$(FUZZTIME) ./internal/ledger
	$(GO) test -fuzz=FuzzCFGBuild -fuzztime=$(FUZZTIME) ./internal/analysis/cfg
	$(GO) test -fuzz=FuzzCallGraph -fuzztime=$(FUZZTIME) ./internal/analysis/callgraph
	$(GO) test -fuzz=FuzzMHP -fuzztime=$(FUZZTIME) ./internal/analysis/mhp
	$(GO) test -fuzz=FuzzMatchmakerOps -fuzztime=$(FUZZTIME) ./internal/simtest
	$(GO) test -fuzz=FuzzLoadReportParse -fuzztime=$(FUZZTIME) ./internal/load

# Coverage with an enforced floor: fails if total statement coverage
# drops below COVER_THRESHOLD percent (the committed floor CI gates on;
# raise it as coverage grows, never lower it to make a PR pass).
COVER_THRESHOLD ?= 70.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/, "", $$NF); print $$NF}'); \
	echo "total statement coverage: $$total% (floor $(COVER_THRESHOLD)%)"; \
	awk -v t="$$total" -v min="$(COVER_THRESHOLD)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the committed $(COVER_THRESHOLD)% floor"; exit 1; }

# Deterministic simulation sweep over a fixed seed corpus (the sim-smoke
# CI job). Any invariant violation prints the seed and a minimized
# schedule; replay locally with the printed peersim command line.
sim-smoke:
	$(GO) run ./cmd/peersim -seed 1 -runs 8 -ops 400 -faults all
	$(GO) run ./cmd/peersim -seed 101 -runs 4 -ops 300 -faults all -mode clique
	$(GO) run ./cmd/peersim -seed 201 -runs 4 -ops 300 -faults all -group-size 4 -clients 6

# End-to-end crash recovery against the real daemon binary: boot with
# -data-dir, drive a session over HTTP, kill -9, reboot over the same
# directory, and assert the status page comes back byte-identical (the
# recovery-smoke CI job).
recovery-smoke:
	bash scripts/recovery-smoke.sh

clean:
	rm -f cover.out test_output.txt bench_output.txt
