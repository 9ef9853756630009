# Tier-1 verification plus the race gate over the concurrency-sensitive
# packages (the parallel epoch pipeline: core, aggregator, answer,
# pubsub, engine, wal, plus the process-wide Student-t memo in stats and
# its sampling callers, and the client Batcher the in-process worker
# pool shares with its proxy sinks), the hot-path allocs/op gate, the multi-query
# determinism gate, the kill-and-resume crash gate, the surge overload
# gate, and the result-provenance lineage gate. `make ci` is the
# pre-merge check.

GO ?= go
RACE_PKGS = ./internal/core/... ./internal/aggregator/... ./internal/answer/... ./internal/pubsub/... ./internal/engine/... ./internal/wal/... ./internal/xorcrypt/... ./internal/chaos/... ./internal/telemetry/... ./internal/stats/... ./internal/sampling/... ./internal/client/... ./internal/proxy/...

# Benchmarks whose numbers seed BENCH_hotpath.json: the per-answer hot
# path (split, join+decrypt+decode+window, randomized response), plus
# the batch-size sweep of the columnar submit tail.
HOTPATH_BENCH = BenchmarkTable2CryptoXOR|BenchmarkTable3ClientXOREncryption|BenchmarkTable3ClientRandomizedResponse|BenchmarkFig8Scalability|BenchmarkFig8SubmitBatch

.PHONY: ci fmt vet build test race smoke multiquery allocgate crash surge chaos obsgate lineage bench bench-json fuzz loc

ci: fmt vet build test race allocgate multiquery smoke crash surge chaos obsgate lineage

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -short skips the multi-process smoke tests here; the dedicated smoke
# target runs them once (tier-1 `go test ./...` without -short still
# covers everything in one go).
test:
	$(GO) test -short ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The multi-process loopback deployments: 2 proxy processes + submit +
# clients + aggregator, single- and multi-query, each asserted
# byte-identical to the in-process pipeline.
smoke:
	$(GO) test -run 'TestMultiProcessSmoke|TestMultiProcessMultiQuerySmoke' -count=1 ./cmd/privapprox-node

# The multi-query determinism gate: N concurrent queries over one
# shared fleet must be byte-identical, per query, to N isolated
# single-query runs under a fixed seed (the TCP half lives in smoke).
multiquery:
	$(GO) test -run 'TestMultiQueryMatchesSolo|TestMultiQueryRegisterAndStopMidRun' -count=1 ./internal/core

# The kill-and-resume crash gate: SIGKILL the durable aggregator
# mid-drain (and, separately, a durable proxy mid-deployment), restart
# each from its -data-dir, and require final per-query results
# byte-identical to an uninterrupted run, plus the in-process
# checkpoint/resume protocol over durable brokers.
crash:
	$(GO) test -run 'TestCrashRecoveryAggregator|TestCrashRecoveryProxy' -count=1 ./cmd/privapprox-node
	$(GO) test -run 'TestSystemCheckpointResume|TestSystemCheckpointResumeMultiQuery|TestSLOCheckpointResumeMidShed' -count=1 ./internal/core

# The closed-loop overload gate: the same deterministic 10× load surge
# through a controlled (SLO shedding) and an uncontrolled system; the
# controlled run must shed, keep tail lag at the target, and drain its
# backlog while the uncontrolled backlog persists.
surge:
	$(GO) test -run 'TestSurgeGate|TestSLOClosedLoopShedsAndRecovers' -count=1 ./internal/surge ./internal/core

# The seeded fault-injection gate: chaos-wrapped transports (connection
# resets, dropped acks, duplicated deliveries, a proxy kill+restart)
# drive the full multi-proxy pipeline under nine fault schedules, and
# every run must produce results byte-identical to the fault-free
# baseline with the broker's session dedup absorbing the redeliveries.
chaos:
	$(GO) test -run 'TestChaosGate' -count=1 ./internal/chaos

# The live-introspection gate: a networked deployment with
# -metrics-addr enabled, scraped over HTTP between two client epochs
# (proxy) and mid-drain (aggregator, parked on the -hold-after hook).
# Asserts the core instrument set is present in Prometheus text format,
# traffic counters are monotonic across epochs, the expvar mirror
# serves the same registry, /readyz reports caught-up control sinks,
# and /debug/privapprox/windows serves a live result card consistent
# with the known workload.
obsgate:
	$(GO) test -run 'TestObsGate' -count=1 ./cmd/privapprox-node

# The result-provenance gate: under a fixed seed, every fired window's
# result card (deterministic fields only) must be byte-identical
# between the in-process pipeline and the networked deployment, and
# identical across Workers/Shards settings; plus the node-level health
# plane (/healthz on every role, submit /readyz). The exactly-once
# card-log contract across a SIGKILL rides in the crash gate.
lineage:
	$(GO) test -run 'TestLineageGate|TestHealthEndpoints' -count=1 ./cmd/privapprox-node

# The allocs/op regression gate: split, join, respond-bits, and
# accumulate — per-message and batch forms — must stay at 0 steady-state
# allocations per op, the full aggregator submit tail (per-share and
# batch) likewise — including with the telemetry tracer and histograms
# attached — and the multi-query tail within its small constant. The
# telemetry package's own instrument primitives are pinned at 0 in
# their in-package gate, re-run here. The fire path: a warm 11-bucket
# window estimate at 1 alloc (its Buckets slice) and a warm Student-t
# critical-value hit at 0. The drain side: a steady-state consumer poll
# into a reused buffer at exactly 1 alloc (the payload buffer) per
# non-empty partition fetch.
allocgate:
	$(GO) test -run 'TestHotPathZeroAllocs|TestAggregatorSubmitSteadyStateAllocs|TestAggregatorMultiQuerySubmitAllocs|TestFig8SubmitZeroAllocs|TestAggregatorSubmitBatchZeroAllocs|TestFig8TelemetryZeroAllocs|TestConsumerPollAllocs' -count=1 .
	$(GO) test -run 'TestInstrumentZeroAllocs' -count=1 ./internal/telemetry
	$(GO) test -run 'TestEstimateWindowAllocs' -count=1 ./internal/aggregator
	$(GO) test -run 'TestTCriticalHitZeroAllocs' -count=1 ./internal/stats

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEpochPipelineParallel|BenchmarkTCPPipeline|BenchmarkMultiQuery' -benchmem .

# Machine-readable performance numbers, seeding the perf trajectory
# across PRs: the hot-path microbenchmarks and the multi-query
# queries-sweep. Each bench run and its JSON conversion are separate
# commands (not a pipe) so a failing benchmark fails the target instead
# of silently writing an empty report.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem . > .bench_hotpath.tmp
	$(GO) run ./cmd/benchjson -out BENCH_hotpath.json < .bench_hotpath.tmp
	@rm -f .bench_hotpath.tmp
	@echo wrote BENCH_hotpath.json
	$(GO) test -run '^$$' -bench 'BenchmarkMultiQuery' -benchmem . > .bench_multiquery.tmp
	$(GO) run ./cmd/benchjson -out BENCH_multiquery.json < .bench_multiquery.tmp
	@rm -f .bench_multiquery.tmp
	@echo wrote BENCH_multiquery.json
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend|BenchmarkWALAppendBatch|BenchmarkWALRecovery' -benchmem ./internal/wal > .bench_wal.tmp
	$(GO) run ./cmd/benchjson -out BENCH_wal.json < .bench_wal.tmp
	@rm -f .bench_wal.tmp
	@echo wrote BENCH_wal.json
	$(GO) test -run '^$$' -bench 'BenchmarkOverloadFrontier' -benchmem ./internal/surge > .bench_overload.tmp
	$(GO) run ./cmd/benchjson -out BENCH_overload.json < .bench_overload.tmp
	@rm -f .bench_overload.tmp
	@echo wrote BENCH_overload.json
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry|BenchmarkFig8SubmitBatchInstrumented' -benchmem . > .bench_telemetry.tmp
	$(GO) run ./cmd/benchjson -out BENCH_telemetry.json < .bench_telemetry.tmp
	@rm -f .bench_telemetry.tmp
	@echo wrote BENCH_telemetry.json

# Short fuzz smoke over every wire codec — the share split/join, the
# answer message, the columnar publish frame (wire v2), the
# control-plane query-set announcement, the WAL record framing — plus
# the SLO controller's checkpoint state.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSplitJoinRoundTrip -fuzztime 10s ./internal/xorcrypt
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 10s ./internal/answer
	$(GO) test -run '^$$' -fuzz FuzzFrameV2RoundTrip -fuzztime 10s ./internal/pubsub
	$(GO) test -run '^$$' -fuzz FuzzQuerySetRoundTrip -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzSLOControllerRestore -fuzztime 10s ./internal/budget

# Non-test Go source lines over the tracked files, excluding perfbench/
# (the benchmark harness). A size gauge for the lean-design aim, not a
# gate: not part of `make ci`.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l
