GO ?= go

# bash + pipefail so a failing `go test` isn't masked by the `tee` it pipes
# through in the bench loops.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Figure/table math, per-app offline analysis, the end-to-end
# attribution→analysis throughput benchmark, the journal append path, and the
# full fleet campaign (collector + store + telemetry) measured per app.
# Each group runs in its own `go test` process: BenchmarkFleetThroughput
# leaves ~100MB of heap garbage behind, and in-process GC pressure from one
# benchmark bleeding into the next skews sub-millisecond measurements.
BENCH_GROUPS = 'BenchmarkFig' 'BenchmarkOfflineAnalysisPerApp|BenchmarkAnalysisThroughput' 'BenchmarkJournalAppend' 'BenchmarkFleetThroughput' 'BenchmarkStorePointLookup|BenchmarkStoreScan' 'BenchmarkBusPublish'

# The gate skips BenchmarkJournalAppend: the append path is fsync-bound and
# its ns/op tracks storage latency windows (±15% between runs on this host),
# so a speed ratio gates the disk, not the code. The record still tracks it,
# and its allocation profile (512 B/op, 6 allocs/op) is exact and stable.
BENCH_GATE_GROUPS = 'BenchmarkFig' 'BenchmarkOfflineAnalysisPerApp|BenchmarkAnalysisThroughput' 'BenchmarkFleetThroughput' 'BenchmarkStorePointLookup|BenchmarkStoreScan' 'BenchmarkBusPublish'

.PHONY: build fmt test vet race bench bench-gate fuzz chaos verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting drift fails verification: gofmt must list no file.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The dispatch worker pool, the network stack, the fault injector, and the
# campaign journal share state across worker goroutines; the obs registry is
# hammered concurrently by every instrumentation site, and the analysis
# accumulator/merge path folds shard partials produced by concurrent shards.
# The root run covers the shard coordinator and outcome-merge paths
# end-to-end. Keep all of them race-clean.
race:
	$(GO) test -race ./internal/dispatch/... ./internal/nets/... ./internal/faults/... ./internal/obs/... ./internal/journal/... ./internal/analysis/... ./internal/resultstore/...
	$(GO) test -race -run 'TestShardCountInvarianceHonest|TestMergeShardOutcomesProcessMode|TestResultStoreShardInvariance|TestEventLogShardCountInvariance' .

# Benchmark duration. Fixed low iteration counts (the old 5x) amortize the
# cold first iteration over so few warm ones that sub-millisecond benchmarks
# report scheduling noise — and a single slow filesystem write — as speedup;
# time-based runs give every benchmark enough warm iterations to measure
# steady state, which is what speedup_vs_prev and the bench gate compare.
# 3s windows average over this host's multi-second load-drift so sample
# means hold within a few percent; the sub-nanosecond Fig reads need no
# stability (the gate floors them out) and run shorter, while the ~150ms
# fleet campaign needs a still-longer window to collect enough iterations.
BENCH_TIME ?= 3s
BENCH_TIME_FIG ?= 1s
BENCH_TIME_FLEET ?= 4s

# Samples per benchmark. benchjson collapses repeats to the fastest sample,
# so records and gate runs are best-of-N — single draws on a shared vCPU
# vary ±20% and would flake the gate. The gate takes more samples than the
# record: comparing the gate run's noise floor against a 3-sample record
# keeps window drift (±5% here) from reading as a code regression, while a
# real slowdown shifts the floor itself and still trips the threshold.
BENCH_COUNT ?= 3
BENCH_GATE_COUNT ?= 5

# Gate threshold; override on a noisy machine (spurious failures within a
# few percent of the bar mean window drift, not regression — re-run or
# lower via BENCH_GATE=0.90).
BENCH_GATE ?= 0.95

# Runs the analysis benchmarks (one process per group, appended into one
# transcript) and writes BENCH_pr14.json: ratios against the checked-in
# pre-refactor baseline (bench/baseline_pr2.txt) plus a speedup_vs_prev diff
# against the previous record (BENCH_pr9.json).
bench:
	: > bench/current_pr14.txt
	for g in $(BENCH_GROUPS); do \
		case "$$g" in \
			BenchmarkFig) t=$(BENCH_TIME_FIG) ;; \
			BenchmarkFleetThroughput) t=$(BENCH_TIME_FLEET) ;; \
			*) t=$(BENCH_TIME) ;; \
		esac; \
		$(GO) test -run '^$$' -bench "$$g" -benchtime $$t -count $(BENCH_COUNT) -benchmem . | tee -a bench/current_pr14.txt || exit 1; \
	done
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr2.txt -prev BENCH_pr9.json -out BENCH_pr14.json \
		-note 'Dex method signatures are rendered once per file (dex.File.SignatureAt) and the emulator reserves its in-memory capture from the planned traffic; FleetThroughput (synth, store put, emulation, disassembly) carries the gain. The other benchmarks do not run the changed paths: their vs-prev ratios below 1 are host drift since the BENCH_pr9.json record, and a same-host A/B of the parent tree measures them equal within noise (OfflineAnalysisPerApp 818 vs 797 us, StorePointLookup 77.0 vs 76.7 us)' \
		< bench/current_pr14.txt

# Regression gate: re-runs the gated benchmark groups and fails (exit 2)
# when any benchmark with a previous measurement drops below $(BENCH_GATE)
# of its recorded speed in the committed BENCH_pr14.json — the same
# measurement regime, so every ratio is comparable. Benchmarks without a
# prior record pass vacuously, as do sub-microsecond ones (cached figure
# reads at ~1ns measure timer jitter, not work). FleetThroughput is the
# one wall-clock benchmark in the gate (real UDP collector, 4-worker
# scheduling): it drifts with machine load across days in a way the
# CPU-bound benchmarks don't, so it carries its own 0.85 tolerance — a same-machine A/B (git stash) is the arbiter when
# it trips. Writes the comparison to bench/gate_check.json without
# touching the committed record.
bench-gate:
	: > bench/gate_run.txt
	for g in $(BENCH_GATE_GROUPS); do \
		case "$$g" in \
			BenchmarkFig) t=$(BENCH_TIME_FIG) ;; \
			BenchmarkFleetThroughput) t=$(BENCH_TIME_FLEET) ;; \
			*) t=$(BENCH_TIME) ;; \
		esac; \
		$(GO) test -run '^$$' -bench "$$g" -benchtime $$t -count $(BENCH_GATE_COUNT) -benchmem . | tee -a bench/gate_run.txt || exit 1; \
	done
	$(GO) run ./cmd/benchjson -baseline bench/baseline_pr2.txt -prev BENCH_pr14.json -gate $(BENCH_GATE) -gate-min-ns 1000 \
		-gate-override 'BenchmarkFleetThroughput=0.85' -out bench/gate_check.json < bench/gate_run.txt

# Fuzz smoke over the decoders fed by untrusted bytes — the pcap packet,
# DNS and capture-file readers, the SDEX container decoder (which reserves
# from its header's method count) and the smali signature parser, the
# supervisor UDP report decoder, the journal replay reader, the artifact
# meta decoder, the shard-partial and shard-outcome decoders that parent
# processes feed with files written by (possibly crashed) shard children,
# and the result-store segment decoder. `go test -fuzz` accepts one target
# per invocation, hence one run each; the pcap and dex patterns are
# anchored so each names exactly one target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDNS$$' -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/dex
	$(GO) test -run '^$$' -fuzz '^FuzzParseTypeSignature$$' -fuzztime 10s ./internal/dex
	$(GO) test -run '^$$' -fuzz FuzzDecodeReport -fuzztime 10s ./internal/xposed
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzArtifactMeta -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz FuzzShardOutcome -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz FuzzPartialDecode -fuzztime 10s ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 10s ./internal/resultstore

# Process-level chaos smoke: a 4-shard fleetscan campaign whose seeded
# schedule SIGKILLs two shard children and the coordinator itself, resumed
# via the coordinator WAL until done, with the merged event log required
# byte-identical to a single-process baseline. Exercises real processes
# (Setpgid, group kill, /healthz probes) where the in-tree chaos test
# (TestChaosKillResumeByteIdentical) covers the same invariant under
# `go test`.
chaos:
	./scripts/chaos_smoke.sh

# Tier-1 verification (see ROADMAP.md) plus gofmt, vet, the race subset,
# the decoder fuzz smoke, and the process-level chaos smoke.
verify: build fmt vet test race fuzz chaos
