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
# `go run ./examples/<name> > examples/<name>/stdout.golden`.
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

# Multi-process cluster soak, every process race-built. `dynaggsim
# supervise` serves as the bootstrap seed of `dynaggsim live -span
# -seeds` members (re-runs of the same binary) and exits 0 only if
# every member completes and converges — each member's rel.err within
# 10 % of the truth — under a clean mass audit. Three members run
# undisturbed; a member that crashes, or exits 66 on a detected data
# race, is restarted by the supervisor, so the lane also requires 0
# restarts. (The killed run is heal-soak's.) Then the TCP transport
# and bootstrap test surface — connection cache,
# reconnect, frame scanner, membership, span registration, and the
# transport contract table (which live-soak runs too: its name matches
# 'Transport') — twice under race. This is the lane that proves the
# stream transport's concurrency story end to end: real listeners,
# real dials, real process boundaries.
cluster-soak:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -race -o $$dir/dynaggsim ./cmd/dynaggsim; \
	$$dir/dynaggsim supervise -n 96 -members 3 -ticks 60 > $$dir/supervise.txt || { cat $$dir/supervise.txt; exit 1; }; \
	cat $$dir/supervise.txt; \
	grep -q 'completed 3  restarts 0  failed 0' $$dir/supervise.txt || { echo "cluster-soak: a supervised member crashed or was restarted" >&2; exit 1; }
	$(GO) test -race -count=2 -timeout 10m -run 'TCP|Bootstrap|FrameScanner|Membership|Announce|TransportContract' ./internal/gossip/live/...

# Gateway soak (CI's gateway lane). First the deployment of
# docs/deployments.md's "A gateway deployment by hand", its command
# lines as written but race-built: three `dynaggsim live
# -protocol=multi -observer-slots 1` members and `dynaggsim gateway` on
# the documented ports. Against those processes, the checks a reader
# would make with curl and loadgen:
# - GET /aggregate/load serves, within 30 s, a 200 whose average is
#   within 30 % of 3.5 (gateway.DemoMean of every name at n = 96);
# - POST /aggregate/cpu returns 201, and cpu then converges the same
#   way: the observer holds no mass, so that 200 proves the new name
#   reached the members' resolvers and their mass came back;
# - a 2 s loadgen run reports (0 errors) (its exit status says only
#   that one read succeeded);
# - SIGINT shuts the gateway down cleanly, and each member exits 0
#   when its 2000 ticks (about 20 s) are done. Members' rel.err rows
#   are printed, not judged.
# A failed check writes its `gateway-soak:` reason to stderr and to
# $dir/reason; the trap kills what still runs (by pid: dash's
# $(jobs -p) is empty), prints the last lines of each process's
# output, and prints the reason last, so a truncated log still ends
# with it. Then the HTTP handler / observer-span / bootstrap-edge
# tests twice under race (among them the converged-read and
# dynamic-registration tests, in process over real TCP sockets), then
# a 5-second closed-loop load smoke (TestLoadSmoke asserts >0
# successful reads, zero errors, and a clean shutdown).
gateway-soak:
	@set -e; dir=$$(mktemp -d); pids=; url=http://127.0.0.1:39080/aggregate; \
	trap 'st=$$?; kill $$pids 2>/dev/null || true; [ $$st = 0 ] || { tail -n 20 "$$dir"/*.txt; cat "$$dir/reason" >&2 2>/dev/null || true; }; rm -rf "$$dir"' EXIT; \
	fail() { echo "gateway-soak: $$*" | tee "$$dir/reason" >&2; exit 1; }; \
	$(GO) build -race -o $$dir/dynaggsim ./cmd/dynaggsim; \
	$(GO) build -race -o $$dir/loadgen ./cmd/loadgen; \
	$$dir/dynaggsim live -protocol=multi -transport=tcp -n 96 -span 0:32 -observer-slots 1 \
	               -listen 127.0.0.1:19321 -seeds 127.0.0.1:19321 -ticks 2000 -pace 10ms > $$dir/m0.txt 2>&1 & pids="$$pids $$!"; \
	$$dir/dynaggsim live -protocol=multi -transport=tcp -n 96 -span 32:64 -observer-slots 1 \
	               -seeds 127.0.0.1:19321 -ticks 2000 -pace 10ms > $$dir/m1.txt 2>&1 & pids="$$pids $$!"; \
	$$dir/dynaggsim live -protocol=multi -transport=tcp -n 96 -span 64:96 -observer-slots 1 \
	               -seeds 127.0.0.1:19321 -ticks 2000 -pace 10ms > $$dir/m2.txt 2>&1 & pids="$$pids $$!"; \
	members=$$pids; \
	$$dir/dynaggsim gateway -n 96 -seeds 127.0.0.1:19321 -listen-http 127.0.0.1:39080 \
	                    -aggregates load -pace 10ms > $$dir/gateway.txt 2>&1 & gw=$$!; pids="$$pids $$gw"; \
	await() { \
		end=$$(( $$(date +%s) + 30 )); \
		while [ $$(date +%s) -lt $$end ]; do \
			code=$$(curl -s -o $$dir/body -w '%{http_code}' $$url/$$1 || true); \
			avg=$$(sed -n 's/.*"average":\([^,]*\),.*/\1/p' $$dir/body 2>/dev/null || true); \
			if [ "$$code" = 200 ] && awk -v a="$$avg" 'BEGIN { exit !(a >= 2.45 && a <= 4.55) }'; then \
				echo "GET /aggregate/$$1 -> $$(cat $$dir/body)"; return 0; \
			fi; \
			sleep 0.1; \
		done; \
		fail "/aggregate/$$1 served no average within 30 % of 3.5 in 30 s (last: $$code)"; \
	}; \
	await load; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST $$url/cpu); \
	echo "POST /aggregate/cpu -> $$code"; \
	[ "$$code" = 201 ] || fail "POST /aggregate/cpu returned $$code, want 201"; \
	await cpu; \
	load=$$($$dir/loadgen -url $$url/load -clients 8 -duration 2s 2>&1 || true); \
	echo "loadgen: $$load"; \
	case "$$load" in *"(0 errors)"*) ;; *) fail "loadgen saw errors or no successful read" ;; esac; \
	kill -INT $$gw; \
	wait $$gw || fail "the gateway exited nonzero after SIGINT"; \
	cat $$dir/gateway.txt; \
	grep -q 'gateway: shut down cleanly' $$dir/gateway.txt || fail "the gateway did not shut down cleanly"; \
	i=0; for p in $$members; do \
		wait $$p || fail "member $$i exited nonzero"; \
		echo "member $$i:"; cat $$dir/m$$i.txt; i=$$((i + 1)); \
	done; pids=
	$(GO) test -race -count=2 -timeout 10m ./internal/gateway
	GATEWAY_LOAD_SECONDS=5 $(GO) test -race -count=1 -timeout 5m -run 'TestLoadSmoke' -v ./internal/gateway

# Chaos lane (CI's chaos job): the scenario engine's test matrix —
# determinism pinning, honest-audit/Byzantine-flagging, partition-heal
# convergence across protocol families, live transport fault
# injection — twice under race; then one seeded dynaggsim run per
# fault family so the CLI surface of each fault kind is exercised end
# to end. (The multi-process heal runs in heal-soak.)
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
# kill/detect/respawn cycles over OS processes. Then the live chaos
# tests twice under race: a partition window over three TCP span
# engines must destroy traffic, sever links, heal to within 10 % of
# the truth on every span, and pass the mass audit. Then one
# supervised run with every process race-built: three `dynaggsim
# live` members, m2 SIGKILLed 2 s in, must be detected and respawned
# exactly once and healed (the respawn reclaims its span via Replace
# bootstrap and is seen alive: a `heal m2` line), and supervise's exit
# 0 means every member converged and the mass audit over the members'
# censuses is clean.
heal-soak:
	$(GO) test -race -count=2 -timeout 15m ./internal/backoff ./internal/gossip/live/health ./internal/supervise
	$(GO) test -race -count=2 -timeout 10m -run 'TestLiveChaos' ./internal/chaos
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -race -o $$dir/dynaggsim ./cmd/dynaggsim; \
	$$dir/dynaggsim supervise -n 96 -members 3 -kill-after 2s -kill m2 > $$dir/heal.txt || { cat $$dir/heal.txt; exit 1; }; \
	cat $$dir/heal.txt; \
	grep -q 'restarts 1  failed 0' $$dir/heal.txt || { echo "heal-soak: the killed member was not respawned exactly once" >&2; exit 1; }; \
	grep -q '^heal m2 ' $$dir/heal.txt || { echo "heal-soak: the respawned member was never seen alive" >&2; exit 1; }; \
	grep -q '^mass audit: ratio' $$dir/heal.txt || { echo "heal-soak: the members printed no mass census" >&2; exit 1; }

# Documentation lint: every exported identifier in every package
# under internal/ (as go list finds them, so a new package cannot go
# unlinted) must carry a doc comment (cmd/doclint), every relative link
# in README/docs must resolve, the README must stay a quickstart, every
# markdown document a Go comment outside bench/ names must exist, every
# `dynaggsim <mode> ...` command in README, docs/ and this Makefile
# (each one of a line's `;`/`&&`/`||`/`&`/`|`-joined commands) must
# parse against that mode's flags (TestDocumentedInvocationsParse), and
# the gateway API reference's example payloads must round-trip against
# the real handlers (TestGatewayAPIDocExamples).
doc-lint:
	$(GO) run ./cmd/doclint $$($(GO) list -f '{{.Dir}}' ./internal/...)
	$(GO) test -run 'TestDocsLinksResolve|TestREADMEStaysQuickstart|TestGoCommentsNameExistingDocs' .
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
TRANSPORT_FUZZ_TARGETS = FuzzFrameScanner FuzzInboxDeliver FuzzDecodeMultiBundle FuzzPackedBundleMatchesDecoder FuzzDecodeAnnounce FuzzDecodeMembership
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

# ./... stops at bench/go.mod, so the benchmark module is vetted on its
# own, offline as bench-selftest builds it.
vet:
	$(GO) vet ./...
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off $(GO) -C bench vet ./...

# Vulnerability scan; a separate target because it downloads the
# scanner and vuln DB, so it needs network (CI runs it, offline
# development can skip it).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

ci: fmt vet build loc examples race figure-golden bench bench-selftest doc-lint
