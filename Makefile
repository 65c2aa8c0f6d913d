# Local development and CI run the exact same commands: the ci target
# below is what .github/workflows/ci.yml invokes.

GO ?= go

.PHONY: build examples test race figure-golden bench-selftest bench bench-gate fmt vet vuln ci live-soak cluster-soak gateway-soak chaos-soak heal-soak fuzz-smoke doc-lint loc

build:
	$(GO) build ./...

# Go line counts, the way CHANGES.md entries quote them: non-test and
# test lines repo-wide (the benchmark module and its build cache
# excluded), then what ROADMAP aims 2 and 3 track — the round engine,
# the transport package and each protocol package — file by file.
# ROADMAP wants the first number to go down; ci prints it.
LOC_FIND = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines: $$($(LOC_FIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' | xargs cat | wc -l)"
	@for d in internal/gossip internal/gossip/live/transport $(wildcard internal/protocol/*); do \
		echo "$$d, non-test:"; \
		find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | sort | xargs wc -l; \
	done

# Example main packages compile as part of ci, and the in-process ones
# run (about a second together) with their stdout compared byte for
# byte against examples/<name>/stdout.golden, so example rot — a build
# break, a panic, an error exit, or a transcript that moved — fails ci
# instead of surprising readers. Every transcript is deterministic; a
# change that moves one on purpose re-records it with
# `go run ./examples/<name> > examples/<name>/stdout.golden`. The
# socket examples run in their soak lanes.
RUN_EXAMPLES = quickstart roadhazard fleettelemetry mediaplayer sizeestimation
examples:
	$(GO) build ./examples/...
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for ex in $(RUN_EXAMPLES); do \
		echo "run examples/$$ex"; \
		$(GO) run ./examples/$$ex > "$$out" || exit 1; \
		cmp "$$out" examples/$$ex/stdout.golden || exit 1; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Figure goldens: the six drivers of the benchmark's round-figures
# workload at its full sizes and seed, on both backends, against the
# SHA-256s in bench/testdata/round_figures_golden.json (read-only) — so
# a change that moves a figure fails here, naming the figure, before
# the benchmark's own correctness check sees it. Beside them, the
# Count-Sketch-Reset cutoff sweeps the benchmark does not run
# (grid-cutoff ablation, Figure 11's size column on traces 2 and 3)
# against digests in internal/experiments. `go test ./...` runs both;
# they skip themselves under -short and under the race detector (40 s
# there, single-goroutine), hence this uncached non-race run.
figure-golden:
	$(GO) test -count=1 -run 'TestFigureDigestsMatchBenchGolden|TestCutoffSweepDigestsGolden' ./internal/experiments

# The benchmark module's own tests (all five workloads at toy size plus
# the compare/quartile tests, ~11 s) under the offline environment
# bench/run.sh exports, so a change that breaks what bench/ compiles
# against or checks fails in ci. Reads bench/, writes nothing there.
bench-selftest:
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off $(GO) -C bench test ./...

# Benchmark smoke pass: compile and run every Go micro-benchmark once
# so probe rot is caught on every push without paying full bench time.
# -short skips the N=1,000,000 BenchmarkEngine block; run it with
# -bench='BenchmarkEngine/n=1000000' ./internal/gossip when profiling.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# Perf gate (CI's bench job on pull requests): every workload of
# BENCHMARK.json as five pairs of untraced 15 s runs, seeds 1-5, base
# and head alternating which goes first; then bench/run.sh -compare
# judges head against base with BENCHMARK.json's bounds and exits 1 on
# `regressed`. BASE is checked out as a git worktree outside the tree
# (so loc and fmt never see it), removed on exit; each side runs its
# own bench/run.sh from its own checkout root, so builds its own binary.
# About 13 minutes plus two builds:  make bench-gate BASE=origin/main
GATE_WORKLOADS = $(shell sed -n '/"workloads"/,/]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<git ref>" >&2; exit 2; }
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"; git worktree prune' EXIT; \
	git worktree add --quiet --detach "$$dir/base" "$(BASE)"; \
	for wl in $(GATE_WORKLOADS); do for seed in 1 2 3 4 5; do \
		sides="base head"; [ $$((seed % 2)) = 1 ] || sides="head base"; \
		for side in $$sides; do \
			root=.; [ $$side = head ] || root="$$dir/base"; \
			(cd "$$root" && bash bench/run.sh --workload $$wl --seed $$seed --seconds 15 --trace 0 -o "$$dir/$$side.jsonl"); \
		done; \
	done; done; \
	bash bench/run.sh -compare "$$dir/base.jsonl" "$$dir/head.jsonl"

# Transport/live-engine soak: the concurrency-heavy tests (goroutine
# drivers, UDP readers, loss injection) twice under the race detector
# with a generous timeout, in their own CI lane so `make ci` stays
# fast. (internal/wire is single-threaded; its tests already run under
# race in `make ci` and its decoders get fuzz-smoke below.) The 'Live'
# pattern covers both population backends — the classic per-agent
# tests and the columnar batch-plane tests live side by side in the
# live package — and the multi-aggregate run over the two transports
# that hold payloads past Send (channel queues, delayed loss
# injection), which is race-clean only if both detach what they keep;
# 'Detach|MatrixGarbage' adds multi's own pins of that contract (a
# detached bundle survives the host's next round; Emit allocates no
# snapshot); 'FIFO' adds the receive queue's own tests (the ring
# against a slice reference, its per-host footprint, and senders racing
# a drain with every accepted payload delivered once, in order). The
# second line soaks the columnar parity suite — 7
# columnar protocols × push/push-pull × workers 0/1/4 (multi's rows
# classic-only), engine- and driver-level — plus the engine and
# figure goldens at workers 4 (each shard samples its own range into
# the shared liveness bitmap), the ColRound liveness contract, the
# executor's workers 0/1/4/8 determinism tests, the push/pull
# batch-order test (batches from one goroutine, in initiator order,
# at every shard count) and the columnar allocation pins (steady-state
# budget, and the first round's reserved message column and, at k > 1
# shards, its cross-shard slots sized once), under
# race, since the sharded executor is the other concurrency-heavy
# surface.
live-soak:
	$(GO) test -race -count=2 -timeout 15m -run 'Live|Transport|Batch|Lossy|UDP|Detach|MatrixGarbage|FIFO' ./internal/gossip/live/... ./internal/protocol/multi
	$(GO) test -race -count=2 -timeout 15m -run 'Columnar|Golden|ColRound|Parallel|PushPullBatches' ./internal/gossip ./internal/experiments

# Multi-process cluster soak, every process race-built. First
# `dynaggsim supervise` serves as the bootstrap seed of three
# `dynaggsim live -span -seeds` members (re-runs of the same binary)
# until all three complete; a member that crashes, or exits 66 on a
# detected data race, is restarted by the supervisor, so the lane also
# requires 0 restarts. Then the three member command lines of
# docs/deployments.md run by hand against each other, and each
# member's span mean must be within 10 % of the population's (the
# outer two spans alone sit 67 % off). Then the TCP transport and
# bootstrap test surface — connection cache, reconnect, frame scanner,
# membership, span registration, and the transport contract table
# (which live-soak runs too: its name matches 'Transport') — twice
# under race. This is the lane that proves
# the stream transport's concurrency story end to end: real listeners,
# real dials, real process boundaries.
cluster-soak:
	@set -e; dir=$$(mktemp -d); pids=; trap 'kill $$pids 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -race -o $$dir/dynaggsim ./cmd/dynaggsim; \
	$$dir/dynaggsim supervise -n 96 -members 3 -ticks 60 > $$dir/supervise.txt || { cat $$dir/supervise.txt; exit 1; }; \
	cat $$dir/supervise.txt; \
	grep -q 'completed 3  restarts 0  failed 0' $$dir/supervise.txt || { echo "cluster-soak: a supervised member crashed or was restarted" >&2; exit 1; }; \
	for span in 0:32 32:64 64:96; do \
		listen=; [ $$span != 0:32 ] || listen="-listen 127.0.0.1:19321"; \
		$$dir/dynaggsim live -transport=tcp -n 96 -span $$span $$listen -seeds 127.0.0.1:19321 > $$dir/member-$$span.txt & pids="$$pids $$!"; \
	done; \
	for pid in $$pids; do wait $$pid; done; \
	cat $$dir/member-*.txt; \
	awk '/rel.err/ { n++; e = $$NF; sub(/%/, "", e); if (e + 0 > 10) bad = 1 } END { exit bad || n != 3 }' $$dir/member-*.txt || { echo "cluster-soak: a member's span mean is more than 10% off the truth" >&2; exit 1; }
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

# Documentation lint: every exported identifier in the contract
# packages must carry a doc comment (cmd/doclint), every relative link
# in README/docs must resolve, the README must stay a quickstart, every
# `dynaggsim <mode> ...` line in README, docs/ and this Makefile must
# parse against that mode's flags (TestDocumentedInvocationsParse), and
# the gateway API reference's example payloads must round-trip against
# the real handlers (TestGatewayAPIDocExamples).
doc-lint:
	$(GO) run ./cmd/doclint internal/backoff internal/chaos internal/env internal/experiments internal/failure internal/gateway internal/gossip internal/gossip/live internal/gossip/live/health internal/gossip/live/transport \
		internal/groups internal/metrics internal/overlay $(wildcard internal/protocol/*) internal/sketch internal/stats internal/supervise internal/sysmem internal/trace internal/wire internal/xrand
	$(GO) test -run 'TestDocsLinksResolve|TestREADMEStaysQuickstart' .
	$(GO) test -run 'TestDocumentedInvocationsParse' ./cmd/dynaggsim
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
