# Local development and CI run the exact same commands: the ci target
# below is what .github/workflows/ci.yml invokes.

GO ?= go

.PHONY: build examples test race figure-golden bench-selftest bench bench-json bench-1m bench-live-1m bench-gate bench-gateway bench-chaos bench-heal fmt vet vuln ci live-soak cluster-soak gateway-soak chaos-soak heal-soak fuzz-smoke doc-lint loc

build:
	$(GO) build ./...

# Go line counts, the way CHANGES.md entries quote them: non-test and
# test lines repo-wide (the benchmark module and its build cache
# excluded), then the two subsystems ROADMAP aim 2 tracks — the round
# engine and the transport package — file by file. ROADMAP wants the
# first number to go down; ci prints it.
LOC_FIND = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines: $$($(LOC_FIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' | xargs cat | wc -l)"
	@for d in internal/gossip internal/gossip/live/transport; do \
		echo "$$d, non-test:"; \
		find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | sort | xargs wc -l; \
	done

# Example main packages compile as part of ci so example rot fails the
# build instead of surprising readers.
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Figure goldens: the six drivers of the benchmark's round-figures
# workload at its full sizes and seed, on both backends, against the
# SHA-256s in bench/testdata/round_figures_golden.json (read-only) — so
# a change that moves a figure fails here, naming the figure, before
# the benchmark's own correctness check sees it. `go test ./...` runs
# it too; it skips itself under -short and under the race detector
# (40 s there, single-goroutine), hence this uncached non-race run.
figure-golden:
	$(GO) test -count=1 -run 'TestFigureDigestsMatchBenchGolden' ./internal/experiments

# The benchmark module's own tests (all five workloads at toy size plus
# the compare/quartile tests, ~11 s) under the offline environment
# bench/run.sh exports, so a change that breaks what bench/ compiles
# against or checks fails in ci. Reads bench/, writes nothing there.
bench-selftest:
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off $(GO) -C bench test ./...

# Benchmark smoke pass: compile and run every benchmark once so perf
# harness rot is caught on every push without paying full bench time.
# -short skips the N=1,000,000 BenchmarkEngine block (see bench-1m).
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# Machine-readable benchmark snapshot: one pass of every benchmark with
# -benchmem, raw text kept for benchstat, JSON (via cmd/benchjson) for
# the per-PR perf-trajectory artifact. -short as in bench; bench-1m
# appends the million-host rows afterwards.
# No pipe on the go test line: a benchmark failure must fail the
# target, not vanish into tee's exit status.
bench-json:
	$(GO) test -short -bench=. -benchmem -benchtime=1x -run='^$$' ./... > BENCH_raw.txt || { cat BENCH_raw.txt >&2; exit 1; }
	@cat BENCH_raw.txt
	$(GO) run ./cmd/benchjson -o BENCH_results.json BENCH_raw.txt

# Million-host engine benchmark: the N=1,000,000 BenchmarkEngine
# configurations (classic AoS baseline plus columnar sequential and
# sharded, under BOTH gossip models — the push-pull rows exercise the
# pair-batch wave executor), one iteration each, peak RSS and
# msgs/round recorded via report metrics. Kept out of the smoke lanes
# by -short above; run deliberately (CI bench job, perf
# investigations). When a bench-json snapshot exists the 1M rows are
# merged into BENCH_results.json so one artifact carries the whole
# trajectory.
bench-1m:
	$(GO) test -bench='BenchmarkEngine/n=1000000' -benchmem -benchtime=1x -run='^$$' -timeout=30m ./internal/gossip > BENCH_1M_raw.txt || { cat BENCH_1M_raw.txt >&2; exit 1; }
	@cat BENCH_1M_raw.txt
	@if [ -f BENCH_raw.txt ]; then \
		cat BENCH_raw.txt BENCH_1M_raw.txt | $(GO) run ./cmd/benchjson -o BENCH_results.json; \
	else \
		$(GO) run ./cmd/benchjson -o BENCH_results.json BENCH_1M_raw.txt; \
	fi

# Million-host LIVE engine benchmark: the columnar population backend
# driving 1,000,000 wall-clock hosts over real loopback TCP sockets,
# batch frames end to end — the transport the benchmark's live-batch
# workload measures. -benchline emits a
# Benchmark-formatted row (ns/tick, msgs/s, peak-rss-bytes) that
# cmd/benchjson merges into BENCH_results.json next to the round-based
# engine rows, so the artifact records both the synchronous and the
# live million-host capability.
bench-live-1m:
	$(GO) run ./cmd/dynaggsim live -backend=columnar -n 1000000 -transport=tcp -benchline | tee BENCH_LIVE_raw.txt
	@files=BENCH_LIVE_raw.txt; \
	for f in BENCH_raw.txt BENCH_1M_raw.txt; do \
		if [ -f $$f ]; then files="$$f $$files"; fi; \
	done; \
	cat $$files | $(GO) run ./cmd/benchjson -o BENCH_results.json

# Perf-gate benchmark sample: the n=10000 BenchmarkEngine matrix at a
# fixed iteration count, six times, so cmd/benchgate has a multi-sample
# median on both sides of a PR. Fixed -benchtime=100x (not a time
# budget) keeps base and head measuring identical work, and 100
# iterations per sample is what makes the rows gate-eligible (benchgate
# exempts single-iteration rows as directional). The CI bench job runs
# this twice — once on the PR head, once on the merge base — and fails
# the build when the gate trips.
bench-gate:
	$(GO) test -bench='BenchmarkEngine/n=10000$$' -benchtime=100x -count=6 -run='^$$' -timeout=20m ./internal/gossip > BENCH_gate_raw.txt || { cat BENCH_gate_raw.txt >&2; exit 1; }
	@cat BENCH_gate_raw.txt
	$(GO) run ./cmd/benchjson -o BENCH_gate.json BENCH_gate_raw.txt

# Transport/live-engine soak: the concurrency-heavy tests (goroutine
# drivers, UDP readers, loss injection) twice under the race detector
# with a generous timeout, in their own CI lane so `make ci` stays
# fast. (internal/wire is single-threaded; its tests already run under
# race in `make ci` and its decoders get fuzz-smoke below.) The 'Live'
# pattern covers both population backends — the classic per-agent
# tests and the columnar batch-plane tests live side by side in the
# live package. The second line soaks the columnar parity suite — all
# 9 protocols × push/push-pull × workers 0/1/4, engine- and
# driver-level — plus the engine and figure goldens at workers 4 (each
# shard samples its own range into the shared liveness bitmap) and the
# ColRound liveness contract, under race, since the sharded columnar
# executors are the other concurrency-heavy surface.
live-soak:
	$(GO) test -race -count=2 -timeout 15m -run 'Live|Transport|Batch|Lossy|UDP' ./internal/gossip/live/...
	$(GO) test -race -count=2 -timeout 15m -run 'Columnar|Golden|ColRound' ./internal/gossip ./internal/experiments

# Multi-process cluster soak: the three-OS-process TCP bootstrap
# example under the race detector (each member process is itself a
# race-built binary), then the TCP transport and bootstrap test
# surface — connection cache, reconnect, frame scanner, membership,
# span registration, and the transport contract table (which live-soak
# runs too: its name matches 'Transport') — twice under race. This is the lane that proves
# the stream transport's concurrency story end to end: real listeners,
# real dials, real process boundaries.
cluster-soak:
	$(GO) run -race ./examples/live_cluster
	$(GO) test -race -count=2 -timeout 10m -run 'TCP|Bootstrap|FrameScanner|Membership|Announce|TransportContract' ./internal/gossip/live/...

# Gateway soak (CI's gateway lane): the three-process-cluster +
# HTTP-gateway example with every process race-built, then the HTTP
# handler / observer-span / bootstrap-edge tests twice under race, then
# a 5-second closed-loop load smoke (TestLoadSmoke asserts >0
# successful reads, zero errors, and a clean shutdown).
gateway-soak:
	$(GO) run -race ./examples/gateway
	$(GO) test -race -count=2 -timeout 10m ./internal/gateway
	GATEWAY_LOAD_SECONDS=5 $(GO) test -race -timeout 5m -run 'TestLoadSmoke' -v ./internal/gateway

# Gateway benchmark rows: the in-process serving path (the ~100k+
# req/s acceptance number) and the loopback-socket path, merged into
# BENCH_results.json next to the engine rows when a snapshot exists.
# Unlike the smoke lanes this needs a real measurement window — a
# single iteration would report one request's reciprocal latency as
# req/s — so it runs the default 1s benchtime per row.
bench-gateway:
	$(GO) test -bench='BenchmarkGateway' -benchmem -run='^$$' -timeout=10m ./internal/gateway > BENCH_gateway_raw.txt || { cat BENCH_gateway_raw.txt >&2; exit 1; }
	@cat BENCH_gateway_raw.txt
	@files=BENCH_gateway_raw.txt; \
	for f in BENCH_raw.txt BENCH_1M_raw.txt BENCH_LIVE_raw.txt; do \
		if [ -f $$f ]; then files="$$f $$files"; fi; \
	done; \
	cat $$files | $(GO) run ./cmd/benchjson -o BENCH_results.json

# Chaos lane (CI's chaos job): the scenario engine's test matrix —
# determinism pinning, honest-audit/Byzantine-flagging, partition-heal
# convergence across protocol families, live transport fault
# injection — twice under race; then one seeded dynaggsim run per
# fault family so the CLI surface of each fault kind is exercised end
# to end. (The supervised multi-process scenario moved to heal-soak.)
chaos-soak:
	$(GO) test -race -count=2 -timeout 15m ./internal/chaos
	$(GO) run ./cmd/dynaggsim chaos -scenario=partition-heal -seed 1
	$(GO) run ./cmd/dynaggsim chaos -scenario=regional-outage -seed 1
	$(GO) run ./cmd/dynaggsim chaos -scenario=churn-storm -seed 1
	$(GO) run ./cmd/dynaggsim chaos -scenario=clock-skew -seed 1
	$(GO) run ./cmd/dynaggsim chaos -scenario=crash-restart -seed 1

# Heal lane (CI's heal job): the self-healing stack end to end. The
# failure detector, retry-policy, and supervisor test matrices twice
# under race — including the detector's false-positive table under
# clock skew and churn storms, and the supervisor's real
# kill/detect/respawn cycles over OS processes — then the supervised
# chaos_cluster example with every process race-built: partition heals
# and a member SIGKILLed mid-run is detected, respawned, and reclaims
# its span via Replace bootstrap with no launcher intervention, under
# a clean cluster-wide mass audit.
heal-soak:
	$(GO) test -race -count=2 -timeout 15m ./internal/backoff ./internal/gossip/live/health ./internal/supervise
	$(GO) run -race ./examples/chaos_cluster

# Heal latency rows: a supervised mini-cluster with a scripted chaos
# kill reports its mean detect/recover latencies (ms-to-detect,
# ms-to-recover), and the round-engine crash-restart scenario reports
# how many rounds the population needed to reabsorb the reset span —
# merged into BENCH_results.json next to the perf and damage rows so
# recovery-time regressions are tracked like speed regressions.
bench-heal:
	$(GO) run ./cmd/dynaggsim supervise -members=2 -kill-after=2s -kill=m1 -seed 1 -benchline | tee BENCH_heal_raw.txt
	$(GO) run ./cmd/dynaggsim chaos -scenario=crash-restart -seed 1 -benchline | tee -a BENCH_heal_raw.txt
	@files=BENCH_heal_raw.txt; \
	for f in BENCH_raw.txt BENCH_1M_raw.txt BENCH_LIVE_raw.txt BENCH_gateway_raw.txt BENCH_chaos_raw.txt; do \
		if [ -f $$f ]; then files="$$f $$files"; fi; \
	done; \
	cat $$files | $(GO) run ./cmd/benchjson -o BENCH_results.json

# Adversary damage rows: the lying-mass scenarios at 1% and 5%
# Byzantine fractions, recorded as Benchmark-formatted rows
# (max/final rel err, recovery round, audit violations) and merged
# into BENCH_results.json next to the perf rows — the artifact then
# tracks robustness regressions the same way it tracks speed.
bench-chaos:
	$(GO) run ./cmd/dynaggsim chaos -scenario=byzantine-lying-1 -seed 1 -benchline | tee BENCH_chaos_raw.txt
	$(GO) run ./cmd/dynaggsim chaos -scenario=byzantine-lying-5 -seed 1 -benchline | tee -a BENCH_chaos_raw.txt
	@files=BENCH_chaos_raw.txt; \
	for f in BENCH_raw.txt BENCH_1M_raw.txt BENCH_LIVE_raw.txt BENCH_gateway_raw.txt; do \
		if [ -f $$f ]; then files="$$f $$files"; fi; \
	done; \
	cat $$files | $(GO) run ./cmd/benchjson -o BENCH_results.json

# Documentation lint: every exported identifier in the contract
# packages must carry a doc comment (cmd/doclint), every relative link
# in README/docs must resolve, the README must stay a quickstart, and
# the gateway API reference's example payloads must round-trip against
# the real handlers (TestGatewayAPIDocExamples).
doc-lint:
	$(GO) run ./cmd/doclint internal/backoff internal/chaos internal/gateway internal/gossip/live internal/gossip/live/health internal/gossip/live/transport internal/supervise internal/wire
	$(GO) test -run 'TestDocsLinksResolve|TestREADMEStaysQuickstart' .
	$(GO) test -run 'TestGatewayAPIDocExamples' ./internal/gateway

# Native Go fuzzing smoke pass: 10 seconds per wire decoder, enough to
# shake out the easy crashes on every push (a socket feeds these
# decoders attacker-controllable bytes). Seed corpora always run via
# `go test`; this adds fresh mutation time. FuzzDecodeFrame covers the
# TCP length-prefix framing; FuzzFrameScanner (in the transport
# package) feeds the stream reassembly path adversarially chunked
# frames and cross-checks it against the one-shot decoder;
# FuzzInboxDeliver feeds the shared receive plane's dispatch arbitrary
# header+body bytes (nothing queued off-span, queues within capacity,
# forged batch counts not charged to Dropped); FuzzDecodeMultiBundle and FuzzPackedBundleMatchesDecoder attack the
# packed-payload trust boundary (the bundle validator against the
# materialising decoder it replaced, and the in-place fold against a
# materialised Receive). FuzzDecodeCounters is the same differential
# check for the bare counter codec. FuzzDeliverBatch (in the live
# package) feeds the columnar shard's inbound fold arbitrary batch
# bodies: no panic, no column write outside the shard's host range.
FUZZ_TARGETS = FuzzDecodeCounters FuzzDecodeCountersMin FuzzDecodeCandidates FuzzDecodeHeader FuzzDecodeSketchBits FuzzDecodeMass FuzzDecodeFrame
TRANSPORT_FUZZ_TARGETS = FuzzFrameScanner FuzzInboxDeliver FuzzDecodeMultiBundle FuzzPackedBundleMatchesDecoder
LIVE_FUZZ_TARGETS = FuzzDeliverBatch
CHAOS_FUZZ_TARGETS = FuzzDecodeScenario
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/wire -run='^$$' -fuzz="$$t\$$" -fuzztime=10s || exit 1; \
	done
	@for t in $(TRANSPORT_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/gossip/live/transport -run='^$$' -fuzz="$$t\$$" -fuzztime=10s || exit 1; \
	done
	@for t in $(LIVE_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/gossip/live -run='^$$' -fuzz="$$t\$$" -fuzztime=10s || exit 1; \
	done
	@for t in $(CHAOS_FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./internal/chaos -run='^$$' -fuzz="$$t\$$" -fuzztime=10s || exit 1; \
	done

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Vulnerability scan; a separate target because it downloads the
# scanner and vuln DB, so it needs network (CI runs it, offline
# development can skip it).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

ci: fmt vet build loc examples race figure-golden bench bench-selftest doc-lint
