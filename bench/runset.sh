#!/usr/bin/env bash
# Runs a result set: every workload of BENCHMARK.json RUNS times, each
# run with another seed, appending one stamped line per run to the file
# given. Two such files are what `run.sh -compare A B` compares.
#
#   bash bench/runset.sh /tmp/A.jsonl            # seeds 1..10, untraced
#   SEED0=101 RUNS=10 bash bench/runset.sh /tmp/B.jsonl
#   TRACE=1 RUNS=1 bash bench/runset.sh /tmp/layers.jsonl
set -euo pipefail
out="${1:?usage: runset.sh OUT.jsonl}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${SECONDS_PER_RUN:-15}"
for wl in ${WORKLOADS:-round-columnar round-figures live-batch cluster-gossip gateway-read}; do
	for ((i = 0; i < ${RUNS:-10}; i++)); do
		bash "$here/run.sh" --workload "$wl" --seed $((${SEED0:-1} + i)) \
			--seconds "$seconds" --trace "${TRACE:-0}" -o "$out" | tail -1 >/dev/null
	done
done
