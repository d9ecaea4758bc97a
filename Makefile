GO ?= go

.PHONY: all build vet test test-short check lint lint-sarif lint-fix-dryrun cover fuzz bench experiments clean

all: build vet test

# CI gate: static checks (including the jxlint invariant analyzers) plus
# the full suite under the race detector (the ingest worker pool and the
# parallel stats folds must stay race-clean).
check: lint
	$(GO) vet ./...
	$(GO) test -race ./...

# jxlint mechanically enforces the interner, hot-path, and determinism
# invariants (see DESIGN.md "Enforced invariants"). It runs through the
# go vet driver, so it sees every package — test-augmented — exactly as
# vet does. Suppressions require //jx:lint-ignore <analyzer> <reason>.
lint:
	$(GO) install ./cmd/jxlint
	$(GO) vet -vettool=$$($(GO) env GOPATH)/bin/jxlint ./...

# Same run, but also merges every unit's findings into a SARIF 2.1.0 log
# (results/jxlint.sarif) for GitHub code scanning. Exit status still
# reflects pass/fail, so this can replace `make lint` in CI.
lint-sarif:
	$(GO) install ./cmd/jxlint
	mkdir -p results
	$$($(GO) env GOPATH)/bin/jxlint -sarif -o results/jxlint.sarif ./...

# Dry run of the mechanical-fix engine: renders every suggested fix as a
# diff (results/jxlint-fix.diff) without applying anything, and fails if
# the diff is non-empty — a committed file carrying an unapplied fix
# (stale //jx:lint-ignore, untagged monoid merge, unclamped wire-derived
# bound) means `jxlint -fix` and the tree have drifted apart. jxlint's
# own exit status is ignored here: `make lint` is the findings gate,
# this target gates only the pending-fix diff.
lint-fix-dryrun:
	$(GO) install ./cmd/jxlint
	mkdir -p results
	-$$($(GO) env GOPATH)/bin/jxlint -fixdiff -o results/jxlint-fix.diff ./...
	@if [ -s results/jxlint-fix.diff ]; then \
		echo "jxlint -fix would modify the tree:"; \
		cat results/jxlint-fix.diff; \
		exit 1; \
	else \
		echo "no pending mechanical fixes"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test -fuzz FuzzFromJSON -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzDecodeAll -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz '^FuzzScan$$' -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzScanSequence -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzKeySet -fuzztime 30s ./internal/entity/
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s ./internal/schema/
	$(GO) test -fuzz FuzzSketchDecode -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzSketchMerge -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzReservoirVsExact -fuzztime 30s ./internal/core/

# Go benchmarks in benchstat-compatible format (-count=10 gives benchstat
# enough samples for a significance test). To compare against a baseline:
# run `make bench > old.txt` on the base commit, re-run on your branch as
# new.txt, then `benchstat old.txt new.txt`. End-to-end throughput and
# memory per workload are perfbench's job (perfbench/run.sh).
bench:
	$(GO) test -run=^$$ -bench=. -benchmem -count=10 ./...

# Regenerates every table and figure of the paper's evaluation into
# results/jxbench_full.txt (about a minute at scale 0.5).
experiments:
	mkdir -p results
	$(GO) run ./cmd/jxbench -all -scale 0.5 -trials 3 > results/jxbench_full.txt
	@echo "wrote results/jxbench_full.txt"

clean:
	rm -f cover.out results/jxlint.sarif results/jxlint-fix.diff
