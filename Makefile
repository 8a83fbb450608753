# Developer entry points. Tier-1 verification matches CI: build, vet,
# race-tested unit suite, and the short paper-figure suite.

# bench-snapshot pipes `go test` into benchsnap; pipefail keeps a failing
# bench run from being masked by a successful parse of its partial output.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO ?= go
# PR labels the bench snapshot file (BENCH_<PR>.json).
PR ?= dev

# BENCH_PATTERN selects the snapshot benchmarks: the ablation and
# overhead benches (the figure harness hot paths), the resilience
# fault-rate sweep introduced with the transport hop stack, the
# Fig6a feedback bench so the embedded telemetry snapshot's rtt_ns
# histogram carries real round-trip samples (tail latency, not just
# means), the broker fanout publish→deliver microbench (the zero-copy
# data-plane trajectory point) plus its durable twin (the price of
# crash safety on the same path), and the raw seglog append/replay
# benches (the durability engine in isolation), and the durability×payload
# cross (fsync tax vs payload amortization on durable queues), and the
# federation forward bench (zero-copy publish crossing an inter-node link),
# and the tagged-counter bench (interned-context probe lookup, pinned at
# 0 allocs/op), and the mirrored publish bench (the confirm-path price of
# synchronous replication, R=1 vs R=2), and the large-body round trip
# (1 MiB publish → deliver → ack over TLS: borrowed publish bodies and
# pooled body loans; report-only).
BENCH_PATTERN ?= BenchmarkAblationAckBatching|BenchmarkAblationWorkQueues|BenchmarkAblationDurabilityPayload|BenchmarkOverheadVsDTS|BenchmarkResilienceFaultRate|BenchmarkFig6aDstreamFeedbackRTT|BenchmarkFanoutPublishDeliver|BenchmarkDurableFanoutPublishDeliver|BenchmarkSeglogAppend|BenchmarkSeglogReplay|BenchmarkFederationForward|BenchmarkTaggedCounter|BenchmarkMirroredPublishDeliver|BenchmarkLargeBodyRoundTrip

# MICRO_ITERS fixes the iteration count for the broker microbenchmarks:
# unlike the figure benches (one timed scenario run each, hence 1x), the
# per-message data-plane benches need real iteration counts for a stable
# ns/op, and a fixed count keeps successive snapshots comparable.
MICRO_ITERS ?= 20000x

# SCALE_ITERS fixes the per-size iteration count for BenchmarkClientScale
# (internal/amqp): each size builds its client fleet once, then publishes
# exactly this many messages through it, so bytes/client and ns/op are
# comparable across snapshots without rebuilding 10⁵ sessions per round.
SCALE_ITERS ?= 2000x

.PHONY: test race short smoke bench-snapshot

test:
	$(GO) build ./...
	$(GO) test ./...

# smoke exercises the declarative scenario path end to end: every
# checked-in example spec (short scale) runs through `streamsim scenario`,
# including the fault-script and pipeline specs. The linkflap spec runs
# a second time with -watch so the live telemetry rollup path (probe →
# aggregator → OnTick) is exercised under injected faults. The
# crashrestart spec hard-kills every broker node mid-run and recovers
# durable queues from their segment logs; coldreplay attaches a late
# consumer at offset 0 and replays retained history. The scale10k spec
# runs 10⁴ pooled clients under a goroutine budget, via the -clients
# override so the flag path is exercised too. The failover spec runs a
# 3-node ring-placed cluster and hard-kills the busiest queue master
# mid-run: consumers follow redirects to the new master and nothing
# confirmed is lost. The failover_replicated spec raises the stakes:
# replication factor 2 and a rolling double kill — master first, then the
# node its mirror was promoted onto — survived on synchronous mirrors
# with zero segment-log relocation.
smoke:
	$(GO) run ./cmd/streamsim scenario examples/scenario/worksharing.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/pipeline.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/linkflap.json
	$(GO) run ./cmd/streamsim scenario -watch examples/scenario/linkflap.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/crashrestart.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/coldreplay.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/failover.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/failover_replicated.json
	$(GO) run ./cmd/streamsim scenario -clients 10000 examples/scenario/scale10k.json

race:
	$(GO) vet ./...
	$(GO) test -race ./...

short:
	$(GO) test -short -count=1 .

# bench-snapshot runs the short figure benchmarks once with -benchmem and
# writes BENCH_$(PR).json — the machine-readable perf trajectory point for
# this PR. Keep -benchtime 1x: the goal is a comparable snapshot per PR,
# not statistical precision.
# The root figure harness runs first so its TestMain telemetry snapshot
# line is the one benchsnap embeds; the broker microbench output follows
# in the same stream, then the client-scale sweep (1k/10k/100k pooled
# clients — ns/op per delivered message, bytes/client, conns) together
# with the internal/amqp benches of BENCH_PATTERN (the large-body round
# trip), which take the client sweep's fixed count: at 1 MiB a message,
# MICRO_ITERS would stream 20 GiB through TLS.
bench-snapshot:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(MICRO_ITERS) -benchmem ./internal/broker ./internal/broker/seglog ./internal/cluster ./internal/telemetry && \
	  $(GO) test -run '^$$' -bench 'BenchmarkClientScale|$(BENCH_PATTERN)' -benchtime $(SCALE_ITERS) -benchmem ./internal/amqp ) \
		| $(GO) run ./cmd/benchsnap -out BENCH_$(PR).json
