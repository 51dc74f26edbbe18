# Mantle build & test entry points. CI (.github/workflows/ci.yml) runs
# fmt + vet + loc-check + test-race + test-readpath + test-frontdoor;
# `make chaos` is the long lane it runs on push, and `make bench` /
# `make bench-compare` are the whole perf surface: the canonical
# benchmark (benchmark/README.md) and its comparison against the
# committed baseline.

GO ?= go

.PHONY: all build test test-race test-readpath test-frontdoor fmt vet loc loc-check chaos bench bench-compare heat-report clean

all: build

build:
	$(GO) build ./...

# The short lane: unit, fault-injection, and partition tests. Experiment
# row tests and the heaviest chaos runs are skipped via -short. The
# benchmark is a module of its own, so its smoke test runs separately.
test:
	$(GO) test -short -count=1 ./...
	cd benchmark && $(GO) test -count=1 ./...

test-race:
	$(GO) test -race -short -count=1 ./...

# The follower read path (raft ReadIndex rounds, reply-driven commit
# advance, leader leases and read grants — a cut-off leader's read, the
# warm holder's read, a silent holder's commit delay — and indexnode
# follower lookups), the
# RemovalList's wait-free read against rename prepare/commit/abort, and
# the path cache's fill-vs-invalidate ordering (radix.Cache and its three
# users: TopDirPathCache, the proxy cache, InfiniFS's AM-Cache), and the
# heat sketches every lookup may record into (heat.TopK under its one
# mutex, fed by the sampled ops), the lookup failure contract (a hot
# lookup falling through to Group.Call, the per-attempt replica re-pick),
# and the read router's rotation when load hints tie, twenty times under the race detector: the inline-round / queued-round
# hand-off, the published-snapshot hand-off, the epoch-guarded fill and
# the fall-through have to hold under many schedules, not one.
test-readpath:
	$(GO) test -race -count=20 -run 'ReadIndex|FollowerRead|Lease|MinorityLeader|ReadAfterWrite|Invalidator|RacingRename|AbortRename|LookupDuringModification|Cache|ProxyCache|AMCache|Fill|InvalidationStress|TopK|HeatRidesTheSampler|LookupFailureContract|TiedHintsRotateReads' ./internal/raft/ ./internal/indexnode/ ./internal/radix/ ./internal/core/ ./internal/baselines/infinifs/ ./internal/heat/

# The front door under the race detector, five times: one dispatcher
# (Cluster.exec) is shared by every TCP connection's goroutine and the
# HTTP handler, DR.Serve re-reads the active site per request while a
# failover flips it, and /metrics scrapes race the op path and that flip.
# With them the remote wire format: codec round trips, the compat rule,
# the poisoned-client and malformed-frame tests, and internal/wire.
test-frontdoor:
	$(GO) test -race -count=5 -run 'Remote|Gateway|ErrorKind|DRServe|ClientMethodSets|Metrics|Status|Admin|Wire|Frame|Compat|Poisoned|Malformed' . ./cmd/mantled/ ./internal/wire/

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Non-test Go lines outside the benchmark module: the figure every
# simplicity entry in CHANGES.md quotes (ROADMAP's >=10% target).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# The ratchet: `make loc` may not exceed the figure of the last PR that
# lowered it. A PR that shrinks the tree lowers LOC_CEILING to its own
# result; one that has to grow it raises the ceiling on purpose, in the
# diff, where a reviewer sees it.
LOC_CEILING = 21322
loc-check:
	@n=$$($(MAKE) -s loc); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "non-test Go lines outside benchmark/ = $$n, over LOC_CEILING = $(LOC_CEILING)"; exit 1; \
	fi; \
	echo "non-test Go lines outside benchmark/ = $$n (ceiling $(LOC_CEILING))"

# The long lane: everything, including the crash/partition chaos suite
# and the paper's experiment row tests (quick scale, ~15s).
chaos:
	$(GO) test -count=1 -timeout 20m ./...

# Every workload and layer probe of the canonical benchmark, once
# (~3 min); the report lands under the git-ignored build directory.
bench:
	bash benchmark/run.sh -seed 1 -out .bench_build/run.json

# ok / worse / unresolved per metric against the committed baseline.
bench-compare:
	bash benchmark/run.sh -compare benchmark/results/baseline.json .bench_build/run.json

# Run the Zipfian heat experiment and print the cluster heat-plane
# report (hot dirs per layer, per-shard load table, slow-op captures).
heat-report:
	$(GO) run ./cmd/experiments -run heat -heat-out /dev/stdout

clean:
	$(GO) clean ./...
	rm -rf .bench_build
