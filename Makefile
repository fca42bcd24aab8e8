# Tier-1 verify plus the concurrency gate. `make verify` is what CI runs.

GO ?= go

.PHONY: build test race vet fmtcheck lint lint-fix-hints lint-fix bench bench-smoke fuzz autopilot-smoke whatif-smoke gateway-smoke shard-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run is part of verify: the engine's lock-free read path is
# exercised by 32 concurrent goroutines against a config-applying writer
# (see internal/engine/race_test.go), and the autopilot's overlapped
# transitions retune while traffic flows; full-scale golden tests skip
# themselves under the detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; any output fails the check.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# conflint enforces the repo's concurrency & determinism invariants at
# the source level (see "Invariants & static analysis" in README.md),
# including the interprocedural analyzers (dettaint, shutdownpath, and
# the v4 effect-summary rule pure).
# Running the full ten-rule set also arms stale-ignore detection: a
# directive that suppresses nothing is itself a finding. The committed
# baseline is empty — every rule must run clean — and a malformed
# baseline fails the run rather than silently suppressing nothing.
# Per-analyzer wall, fixpoint iteration counts, the fix-planning wall
# and the sequential-vs-parallel lint wall land in BENCH_conflint.json;
# the same findings land in conflint.sarif for code-scanning UIs.
lint:
	$(GO) run ./cmd/conflint -baseline baseline.empty.json \
		-bench-json BENCH_conflint.json -sarif conflint.sarif ./...

# Same run, but each finding prints the offending line and a suggested
# edit.
lint-fix-hints:
	$(GO) run ./cmd/conflint -hints ./...

# Apply every mechanical fix (hotalloc prealloc, errcheck reasoned
# discard, sink labels, stale-ignore deletion), gofmt the touched
# files, then re-lint to prove the fixed findings are gone and no new
# ones appeared. Running it twice is a no-op.
lint-fix:
	$(GO) run ./cmd/conflint -fix ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The wall-clock benchmark's own tests (a module of its own, so `go test
# ./...` at the root does not reach it): every workload at 1/20 size with
# every answer checked against the P-configuration oracle and the
# committed digests. An engine refactor is checked by the benchmark's
# oracle here, before the benchmark itself is run.
bench-smoke:
	cd benchmark && $(GO) test ./...

fuzz:
	$(GO) test ./internal/sql/ -fuzz=FuzzParse -fuzztime=30s

# A bounded online run: 3 windows with a mixture drift, metrics served
# on an ephemeral port, perf record written to BENCH_autopilot.json.
autopilot-smoke:
	$(GO) run ./cmd/autopilotd -windows 3 -drift -drift-at 1 \
		-addr 127.0.0.1:0 -bench-json BENCH_autopilot.json

# The what-if fast path held to its perf record: the Table 2 / Figure 5
# recommender searches run cache-off then cache-on, recommendations must
# be byte-identical, and the speedups land in BENCH_whatif.json.
whatif-smoke:
	$(GO) run ./cmd/whatifbench -o BENCH_whatif.json

# Boot the multi-tenant gateway in-process, drive 500 one-query sessions
# across 3 tenants, and drain. loadgen exits nonzero unless the gateway
# went ready, admitted queries, saw zero transport errors and shut down
# cleanly; throughput, p50/p99, rejection rate and per-tenant goal
# levels land in BENCH_gateway.json.
gateway-smoke:
	$(GO) run ./cmd/loadgen -selfhost -scale 0.0001 -tuning \
		-sessions 500 -queries 1 -workers 24 -o BENCH_gateway.json

# The sharded engine's scaling curve and determinism contract: results
# and recommendations byte-identical at 1 and 4 shards, simulated
# throughput monotone in shard count, dry-run autoscaler audited without
# mutating. Exits nonzero on any violation; the curve lands in
# BENCH_shard.json.
shard-smoke:
	$(GO) run ./cmd/shardbench -smoke -o BENCH_shard.json

verify: build test race vet fmtcheck lint bench-smoke autopilot-smoke whatif-smoke gateway-smoke shard-smoke
