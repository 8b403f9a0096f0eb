#!/usr/bin/env bash
# Takes one set: RUNS runs of every workload, each with another seed, and
# writes one JSON line per run to OUT for `kamel-benchmark compare`.
#
#   crates/benchmark/sets.sh OUT.json [RUNS=10] [FIRST_SEED=1] [TRACE=0]
set -euo pipefail

out="${1:?usage: sets.sh OUT.json [RUNS] [FIRST_SEED] [TRACE]}"
runs="${2:-10}"
first="${3:-1}"
trace="${4:-0}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../../BENCHMARK.json")"
: > "$out"
for workload in bulk_ngram store_cold serve_reload; do
    for ((i = 0; i < runs; i++)); do
        seed=$((first + i))
        result="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $result}" >> "$out"
    done
done
