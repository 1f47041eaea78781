GO ?= go

.PHONY: verify race bench cover build test smoke smoke-cluster

# Tier-1 verify: must stay green on every commit.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 verify: static analysis + the race detector over the parallel
# pipeline (quality matrix, slicer fan-out, tensile replicates).
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Go micro-benchmarks: serial-vs-parallel wall time for the quality
# matrix and the indexed-vs-naive slicer kernel comparison. The
# end-to-end benchmark is the harness under bench/ (bash bench/run.sh,
# see bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQualityMatrix' -benchmem -benchtime 2x .
	$(GO) test -run '^$$' -bench 'BenchmarkSliceKernel|BenchmarkRasterize' -benchmem ./internal/slicer

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
