# Tier-1 verify plus the concurrency gate. `make verify` is what CI runs.

GO ?= go

.PHONY: build test race vet fmtcheck lint bench bench-smoke fuzz perf-compare verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run is part of verify: the engine's lock-free read path is
# exercised by 32 concurrent goroutines against a config-applying writer
# (see internal/engine/race_test.go), and the autopilot's overlapped
# transitions retune while traffic flows; full-scale golden tests skip
# themselves under the detector. It is also the gate for atomics — a
# plain overwrite of an atomic counter is its finding (vet's copylocks
# has the copies), which is why conflint carries no atomic rule.
race:
	$(GO) test -race ./...

# The benchmark is a module of its own, so it is vetted on its own: its
# atomic.Int64 counters rely on copylocks like everything else's.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# gofmt -l prints offending files; any output fails the check.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# conflint enforces the repo's concurrency & determinism invariants at
# the source level: six rules, each kept for a seeded bug only it
# catches (DESIGN.md §10). Any finding — a stale ignore included — exits 1.
lint:
	$(GO) run ./cmd/conflint ./...

# BenchmarkFig6 once: the reproduction's bytes/op proxy (EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/bench

# The wall-clock benchmark's own tests (a module of its own, so `go test
# ./...` at the root does not reach it): every workload at 1/20 size with
# every answer checked against the P-configuration oracle and the
# committed digests. An engine refactor is checked by the benchmark's
# oracle here, before the benchmark itself is run.
bench-smoke:
	cd benchmark && $(GO) test ./...

fuzz:
	$(GO) test ./internal/sql/ -fuzz=FuzzParse -fuzztime=30s
	$(GO) test ./internal/exec/ -fuzz=FuzzKeyIdentity -fuzztime=30s
	$(GO) test ./internal/exec/ -fuzz=FuzzFusedAggregate -fuzztime=30s
	$(GO) test ./internal/exec/ -fuzz=FuzzMergeJoin -fuzztime=30s
	$(GO) test ./internal/btree/ -fuzz=FuzzBuild -fuzztime=30s
	$(GO) test ./internal/lint/ -fuzz=FuzzResolve -fuzztime=30s

# make perf-compare BASE=<rev>: this checkout against <rev> on the
# wall-clock benchmark — ten interleaved pairs per workload, each
# metric's medians, the base's inter-quartile spread, wins/pairs and a
# verdict against the bounds in BENCHMARK.json. The one protocol for
# "did this change move the wall".
perf-compare:
	bash scripts/perf-compare.sh $(BASE)

# Sub-second gates first, so a vet or lint finding does not wait for the
# race run.
verify: build vet fmtcheck lint test race bench-smoke
