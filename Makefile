GO ?= go

.PHONY: verify race bench cover build test smoke smoke-cluster deadcode

# Tier-1 verify: must stay green on every commit.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 verify: static analysis + the race detector over the parallel
# pipeline (quality matrix, slicer fan-out, tensile replicates). The
# bench/ harness is a nested module that `go vet ./...` skips; vetting it
# here makes a deleted or renamed symbol it imports fail locally, not
# only in the CI bench job.
race:
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) test -race ./...

# Production code is what the binaries link: build obfuscade, paperbench
# and the bench harness with inlining off and fail on any non-test
# function none of them links that scripts/deadcode.allow does not list,
# or on a stale allow-list entry (scripts/deadcode.go).
deadcode:
	$(GO) run scripts/deadcode.go

# Go micro-benchmarks: serial-vs-parallel wall time for the quality
# matrix, the indexed-vs-naive slicer kernels (x-y and x-z split bar) and
# the x-run-vs-flood-fill cavity check. The end-to-end benchmark is the
# harness under bench/ (bash bench/run.sh, see bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQualityMatrix' -benchmem -benchtime 2x .
	$(GO) test -run '^$$' -bench 'BenchmarkSliceKernel|BenchmarkRasterize' -benchmem ./internal/slicer
	$(GO) test -run '^$$' -bench 'BenchmarkComponents' -benchmem ./internal/voxel

# End-to-end smoke of the job service: boots `obfuscade serve` on a
# random port in a fresh process, submits two identical + one distinct
# job, and asserts exact cache hit/miss counters on /metrics plus a
# graceful SIGTERM drain (scripts/smoke_serve.sh).
smoke:
	./scripts/smoke_serve.sh

# Cluster smoke: a `-route-to` router over two shards in fresh
# processes — key-stable placement via per-shard /metrics, federated
# counter sums, cross-tier request/trace ID matching in the access
# logs, merged-trace parentage, failover after SIGKILLing a shard, and
# 429 + Retry-After shed pass-through (scripts/smoke_cluster.sh). Set
# CLUSTER_TRACE_OUT to keep the merged Chrome trace.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Coverage floor over the observability, tracing, worker-pool, serving,
# sharding and singleflight-cache packages — the subsystems every
# parallel stage and the routing tier depend on.
COVER_FLOOR ?= 85
COVER_PKGS = ./internal/obs ./internal/parallel ./internal/trace ./internal/serve ./internal/shard ./internal/stego ./internal/cache
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out $(COVER_PKGS)
	@pct=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v pct="$$pct" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (pct + 0 < floor + 0) { printf("cover: FAIL: %.1f%% below floor %s%% ($(COVER_PKGS))\n", pct, floor); exit 1 } \
		printf("cover: OK: %.1f%% >= floor %s%% ($(COVER_PKGS))\n", pct, floor) }'
