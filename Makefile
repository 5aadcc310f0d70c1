# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync:
# `make ci` is exactly what the workflow gates on.

GO ?= go

.PHONY: build vet fmt test race bench fuzz-smoke perf perf-smoke docscheck dist-smoke share-smoke e2e-smoke chaos-smoke staticcheck ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Fuzz smoke: ten seconds of the frame-codec differential
# (internal/dist FuzzBatchFrame) — the hand-written batch-frame writer
# and reader against encoding/json, byte for byte and value for value,
# on generated frames and arbitrary wire bytes — then ten seconds of
# plan-cache file loading (internal/opt FuzzPlanCacheLoad): arbitrary
# bytes must load or fail without a panic, leave the cache's views
# consistent, and Save/Load what was accepted as a fixed point. A
# finding lands in the package's testdata/fuzz and fails every later
# `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBatchFrame -fuzztime=10s ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzPlanCacheLoad -fuzztime=10s ./internal/opt

# Documentation gate: markdown links in the top-level docs and the
# docs/ reference pages must resolve, and every exported identifier
# in the optimizer, estimator, distribution, execution, serving,
# result-cache, tracing, engine/handler and bounded-store packages
# must carry a doc comment.
docscheck:
	$(GO) run ./cmd/docscheck \
		-md README.md,ARCHITECTURE.md,ROADMAP.md,CHANGES.md,bench/README.md,docs/API.md,docs/OPERATIONS.md \
		-pkg ./internal/opt,./internal/card,./internal/dist,./internal/exec,./internal/serve,./internal/rescache,./internal/trace,./internal/server,./internal/bounded

# Distributed-optimization smoke: the coordinator/worker protocol
# under the race detector — two-plus-worker LocalTransport clusters
# (sharded search, wire bound-sync, epoch gossip, cache warmup) and
# the HTTP transport over loopback. The second line repeats the
# accounting tests of fragments stopped at K at several GOMAXPROCS:
# whether the output reaches K before a fragment's last frame depends
# on the CPU count, and one CPU alone hides the race.
dist-smoke:
	$(GO) test -race -count=1 ./internal/dist
	$(GO) test -race -cpu 1,2,4 -count=5 -run 'TestDistributedExecutionMatchesLocal|TestReverseEpochGossip|TestExecutePlanBudgetAccounting' ./internal/dist

# Cross-query sharing smoke, all under the race detector: the
# bounded-store model tests (the LRU under both caches, the ring under
# the slowlog, trace store and event bus), the shared≡unshared
# differential (result-cache clusters on all three
# worlds over LocalTransport and HTTP return byte-identical rows with
# strictly fewer logical calls on repeats), the epoch-invalidation
# staleness pins (a bump is never followed by a stale serve, locally
# or via gossip), the /query coalescer edge cases (leader budget
# trips with live waiters, waiter detach, per-waiter traces), and the
# handler tests that drive the real /query path under httptest both
# single-process and over a two-worker fleet (local ≡ fleet rows, typed
# 504 budget trips, request-count reconciliation with /metrics, slowlog
# first_row_ms).
share-smoke:
	$(GO) test -race -count=1 -run 'TestResultCache|TestWorkerGossip' ./internal/dist
	$(GO) test -race -count=1 ./internal/bounded ./internal/rescache ./internal/serve ./internal/server

# End-to-end smoke: build the real binaries, start a coordinator and
# two mdqworker processes over loopback HTTP, answer a query through
# sharded optimization + fragment execution, and assert the answer
# matches single-process mdqrun output (plus the reverse gossip path
# reporting worker feedback upstream). The traced variant re-runs the
# query with "trace": true and asserts the worker spans — shipped
# across the wire — nest under the coordinator's dispatch spans with
# estimate-vs-actual populated on every plan node. The flag inventory
# then matches each binary's -h against its docs/OPERATIONS.md table
# and runs the mdqrun -explain commands README.md and ARCHITECTURE.md
# quote. Runs fine on a single-CPU dev box; the gate is correctness,
# not wall-clock.
e2e-smoke:
	$(GO) test -tags e2e -count=1 -v -run 'TestMultiProcessFragmentExecution|TestTracedFleetQuery|TestFlagInventoryAndExplain' ./e2e

# Chaos smoke: SIGKILL a real mdqworker process while queries are in
# flight against a real coordinator. Every query — before, during and
# after the kill — must answer byte-identically to single-process
# mdqrun (dispatches to the corpse fail over via retry, invisibly),
# and the coordinator's /fleet view must mark the dead worker down.
chaos-smoke:
	$(GO) test -tags e2e -count=1 -v -timeout 5m -run TestChaosWorkerKill ./e2e

# Static analysis beyond go vet. The staticcheck binary is not vendored
# (this module is dependency-free); CI installs a pinned version. The
# target degrades to a notice when the tool is absent locally.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The repo's benchmark (BENCHMARK.json, bench/README.md): real
# mdqserve/mdqworker processes under four seeded workloads, every
# answer checked against the plan-independent oracle, six end-to-end
# and ~65 per-layer metrics. Compare two commits with
# `mdqperf -compare` over alternating -out files.
perf:
	$(GO) run ./bench/cmd/mdqperf

# The same with a 3 s measured window per workload: the validity guards
# and the oracle must hold; no wall-clock gate.
perf-smoke:
	$(GO) run ./bench/cmd/mdqperf -seconds 3

ci: build vet fmt staticcheck docscheck race fuzz-smoke dist-smoke share-smoke e2e-smoke chaos-smoke bench perf-smoke
