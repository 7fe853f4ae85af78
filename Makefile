# Developer entry points. `make check` is the full pre-merge gate:
# formatting, vet, the project's own static-analysis suite (pitlint), the
# whole test suite under the race detector, a one-shot pass over the
# tier-1 figure benchmarks so a broken experiment harness fails here
# instead of in a long benchmark run, and a vulnerability scan when
# govulncheck is installed.

GO ?= go

.PHONY: all help build test check fmt vet lint lint-audit vulncheck race bench bench-smoke chaos stress fuzz

all: check

help:
	@echo "make check       - full pre-merge gate (build fmt vet lint lint-audit race bench-smoke vulncheck)"
	@echo "make build       - compile all packages, for this machine and for arm64 (whose"
	@echo "                   portable Go Equation 5 kernel is also vetted there), and fail"
	@echo "                   if the arm64 compiler fuses any multiply-add (FMADDD, FMSUBD,"
	@echo "                   FNMADDD, FNMSUBD) outside benchmark/: the goldens pin unfused bits"
	@echo "make test        - run the test suite"
	@echo "make race        - run the test suite under the race detector"
	@echo "make fmt         - fail if any file needs gofmt"
	@echo "make vet         - go vet"
	@echo "make lint        - pitlint, the repo's own static-analysis suite"
	@echo "make lint-audit  - list every active //pitlint:ignore with its justification"
	@echo "make bench       - the BENCHMARK.json harness in self-check mode (go run ./benchmark"
	@echo "                   -selfcheck); see benchmark/README.md for a measured run"
	@echo "make bench-smoke - one-shot benchmark smoke: figure benchmarks plus the"
	@echo "                   search/core/rcl/lrw/randwalk/propidx/dynamic/stream micro-benchmarks"
	@echo "                   (lrw's SummarizeMany and core's ColdOpen time a 120-topic refill,"
	@echo "                   core's ColdOpenRCL the same refill on RCL-A summaries,"
	@echo "                   lrw's Propagate4 one Equation 5 iteration per kernel, go and avx,"
	@echo "                   in ns per in-edge,"
	@echo "                   core's WarmSummaries the 1 200-topic warm-up per method at one"
	@echo "                   worker and at GOMAXPROCS, stream's Flush one streamed batch,"
	@echo "                   dynamic's Apply its graph splice), the benchmark harness's"
	@echo "                   -smoke run, and pitserve -smoke at -shards 1 (the default) and 2,"
	@echo "                   the second cold-starting from the artifacts the first saved"
	@echo "                   (the metric family list is TestMetricFamiliesDocumented's, under make test)"
	@echo "make fuzz        - every Fuzz* target for 10s each: the artifact, graph and topic"
	@echo "                   parsers (storage FuzzLoad, graph/topics FuzzRead) and the"
	@echo "                   /search and /updates request decoders (server FuzzSearchQuery,"
	@echo "                   FuzzUpdates)"
	@echo "make chaos       - fault-injection suite under -race: internal/chaos plus the"
	@echo "                   ladder tests in core, server and shard (a deadline shorter"
	@echo "                   than a build still warming the cache for the next request,"
	@echo "                   the 503 floor under a permanent outage, retried by every"
	@echo "                   request at most once per topic until a healed kernel serves"
	@echo "                   full again, the answer a faulted shard degrades to), the"
	@echo "                   streaming churn/soak/all-or-nothing tests in internal/stream"
	@echo "                   and internal/shard, the refresh = rebuild property test,"
	@echo "                   a canceled concurrent index patch,"
	@echo "                   an open session holding the query gate until Done"
	@echo "                   (OpenHoldsGateUntilDone), every shard's walks and Γ equal"
	@echo "                   to shard 0's after every batch (ShardIndexesIdentical),"
	@echo "                   the generation the /updates ack, /search and /stats report,"
	@echo "                   a building open spreading its misses over every core"
	@echo "                   (BuildingOpenFansOut) and the multi-key singleflight (DoMany) tests"
	@echo "make stress      - the handshake-driven concurrency tests 200 times each: in core,"
	@echo "                   a building open fanning out (BuildingOpenFansOut) and the"
	@echo "                   query gate held by an open session, a Run and a nested hold"
	@echo "                   while Retire drains (OpenHoldsGateUntilDone,"
	@echo "                   RetireDrainsBuiltEngine, RunHoldsGateAcrossRerank,"
	@echo "                   GateTokenNamesItsGate), a herd joining one summary build and a"
	@echo "                   waiter canceled once joined (SummarizeSingleFlight,"
	@echo "                   MetricsDedupWaits, SummarizeWaiterCancellationKeepsBuild);"
	@echo "                   in singleflight, every caller joining"
	@echo "                   one flight and a waiter canceled while joined (DoDeduplicates,"
	@echo "                   WaiterCancellationDoesNotAbortCall)"
	@echo "make vulncheck   - govulncheck when installed (best-effort)"

# build also cross-compiles for arm64, where propagate4 runs its portable
# Go kernel instead of the amd64 assembly one (internal/lrw), and vets
# that package there, so the portable path cannot rot unseen. The
# amd64 vet run checks the assembly's frame (asmdecl). The arm64 backend
# fuses a*b + c into one rounding where amd64 rounds twice, so the same
# source would compute other bits than the goldens pin: every such
# product is wrapped in an explicit float64(…), which the Go spec says
# rounds, and build fails on any fused instruction the arm64 assembly
# listing still shows (benchmark/ is its own program and is not held to
# the goldens).
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/lrw/
	@fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/... ./cmd/... . 2>&1 | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b'); \
	if [ -n "$$fused" ]; then \
		echo "arm64 fuses these multiply-adds; wrap the product in float64(…):"; \
		echo "$$fused" | grep -oE '\([^)]*\.go:[0-9]+\)' | sort -u; exit 1; \
	fi

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# pitlint: the repo's domain-specific analyzers (cancellation,
# determinism, probability hygiene, error wrapping, lock safety,
# goroutine lifecycle, pool/metric hygiene, unsafe confinement), run
# through the standard vet driver. ./... includes internal/analysis and
# cmd/pitlint, so the suite is held to its own rules by the same run. A
# //pitlint:ignore that suppresses nothing is a finding here. See README
# "Static analysis".
lint:
	$(GO) build -o bin/pitlint ./cmd/pitlint
	$(GO) vet -vettool=$(CURDIR)/bin/pitlint ./...

# Suppression audit: every active //pitlint:ignore with its file:line,
# analyzer list, and justification. Fails on malformed directives and on
# analyzer names the suite does not have.
lint-audit:
	$(GO) run ./cmd/pitlint -why .

# vulncheck is best-effort: govulncheck needs network access for its
# vulnerability database, so skip (without failing the gate) when the
# tool is not installed.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# Chaos: the fault-injection harness (internal/chaos) and the end-to-end
# fidelity-ladder proofs that use it — a full attempt whose deadline
# fires still warming the cache for the next request, the planned 503
# when nothing is cached under a permanent outage (every request
# retrying its builds, at most one summarizer call per topic, and the
# first request after the outage heals served full), a blown deadline
# or a failing summarizer answered from a lower tier (never a 504 or a
# 500), the exact ranking a faulted shard's query
# degrades to, zero unplanned 5xx under injected failure, goroutine
# hygiene on shutdown,
# the streaming soak (a fault-injected summarizer on every swapped-in
# engine must never poison carried summaries), the whole-shard-set
# swap under router load and its all-or-nothing publish, the root
# package's refresh ≡ rebuild property (every flush of a streamed
# deployment equals a from-scratch build), and the multi-key flight every
# cache miss goes through (singleflight DoMany: per-key dedup, waiter vs
# Base cancellation, panics reaching every key), one request per
# generation (a request parked across a publish merges no two), and a
# PatchIndexes canceled before or while its walk and Γ patches run side
# by side, or inside the walk scan, the walk re-sampling or a
# Γ-enumeration worker (an error, nothing published, every goroutine
# joined before it returns), an open search session holding its
# engine's query gate until Done (a Retire drains behind it), every
# shard's walks and Γ bit-identical to shard 0's after every streamed
# batch (what one search session over every shard's summaries rests
# on), a building open spreading its misses over every core (each topic
# built once, a serial engine's bits, the first error in topic order, a
# cancel mid-fan-out leaving no goroutine), and the
# /updates ack, /search and /stats agreeing on the generation — always under
# the race detector, since the interesting bugs here are races between
# degradation, detached builds, swap and close.
chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) test -race -run 'Chaos|Planned|FaultedShard|Soak|Churn|AllOrNothing|RefreshEqualsRebuild|DoMany|SeesOneGeneration|PatchIndexesCanceledContext|WalksLadder|DeadlineDegrades|DeadlineWithNothingCached|TestDegraded|ResponsesReportGeneration|OpenHoldsGateUntilDone|ShardIndexesIdentical|BuildingOpenFansOut' . ./internal/core/ ./internal/server/ ./internal/stream/ ./internal/shard/ ./internal/singleflight/

# Stress: the concurrency tests whose overlaps and cancellations are
# made by handshakes between goroutines, not by timing, 200 times each —
# a building open spreading its misses over every core (overlapping
# builds, the first error in topic order, a cancel stopping the
# hand-out) and the query gate a Retire drains behind (an open session
# until Done, a Run on a built engine, a Run across its re-rank, a
# nested hold under its own engine's token), the engine's summary builds
# (a herd joining one build before its gate opens, counted once, and a
# waiter canceled only once it has joined), and singleflight's joins
# (every caller on one flight before its gate opens, a waiter canceled
# only once it has joined). A red run here is a race
# one tier-1 pass would meet about once in a hundred.
stress:
	$(GO) test -count=200 -run '^(TestBuildingOpenFansOut|TestOpenHoldsGateUntilDone|TestRetireDrainsBuiltEngine|TestRunHoldsGateAcrossRerank|TestGateTokenNamesItsGate|TestSummarizeSingleFlight|TestMetricsDedupWaits|TestSummarizeWaiterCancellationKeepsBuild|TestDoDeduplicates|TestWaiterCancellationDoesNotAbortCall)$$' ./internal/core/ ./internal/singleflight/

# The repo's benchmark is benchmark/ (declared in BENCHMARK.json): it
# boots the real pitserve on loopback and measures it end to end.
# -selfcheck runs every workload twice and fails if a pair differs by
# more than its bound — run it before trusting a before/after.
bench:
	$(GO) run ./benchmark -selfcheck

# Benchmark smoke: run the data_2k figure benchmarks and the online-path
# and write-side (walk index, Γ, summarizer, each four-lane Equation 5
# kernel per in-edge: lrw's BenchmarkPropagate4/{go,avx}, the 120-topic
# refill: lrw's BenchmarkSummarizeMany, core's BenchmarkColdOpen, and on
# RCL-A summaries core's BenchmarkColdOpenRCL, the 1 200-topic
# warm-up per method at one worker and at GOMAXPROCS: core's
# BenchmarkWarmSummaries, one streamed batch: stream's BenchmarkFlush,
# and its graph splice: dynamic's BenchmarkApply) micro-benchmarks,
# their data_350k sub-benchmarks included, exactly once (-benchtime 1x), plus
# the benchmark harness's seconds-long -smoke run, to prove every
# benchmark path still executes. No timing value — just "does it run". The pitserve -smoke
# runs then serve real HTTP on ephemeral ports and fail on an error
# status or an empty /metrics — one code path at two partition widths
# sharing one artifact directory: the default -shards 1 builds and saves
# it, -shards 2 cold-starts from what the other width wrote. Which
# families /metrics holds is TestMetricFamiliesDocumented's (cmd/pitserve,
# against README's metrics table), run by `make race` with the obs
# packages themselves.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig05TimeCostData2k|BenchmarkFig10PrecisionData2k' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/search/ ./internal/core/ ./internal/rcl/ ./internal/lrw/ ./internal/randwalk/ ./internal/propidx/ ./internal/dynamic/ ./internal/stream/
	$(GO) run ./benchmark -smoke
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		$(GO) run ./cmd/pitserve -smoke -index-dir "$$d" && \
		$(GO) run ./cmd/pitserve -smoke -shards 2 -index-dir "$$d"

# Fuzz every decoder of untrusted input, 10 s per target (`go test -fuzz`
# takes one target per run, so one line each): the v2 artifact load path
# (the only one; seeds include a retired gob-v1 prefix, which must be
# refused) must produce wrapped `storage:` errors, never a panic or an
# unbounded allocation; the graph and topic text readers must never
# panic and must round-trip what they parse; /search's query string and /updates' body
# must never answer an unplanned 5xx, a 200 outside k ∈ [1, MaxK] or
# λ ∈ [0, 1], or a 202 for an event stream's validation refuses. CI runs
# this budget on every push; longer local sessions just raise -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/topics/
	$(GO) test -run '^$$' -fuzz '^FuzzSearchQuery$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzUpdates$$' -fuzztime 10s ./internal/server/

check: build fmt vet lint lint-audit race bench-smoke vulncheck
