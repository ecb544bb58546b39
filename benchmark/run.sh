#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                       every workload, timed and traced; rewrites BENCHMARK.json
#   benchmark/run.sh --seed 7              the same on another seed
#   benchmark/run.sh --smoke               the same on about 1/50 of the operations, nothing rewritten
#   benchmark/run.sh --workload warm_serving --seed 1 --seconds 36 --trace 0
#                                          one run of one workload (what BENCHMARK.json's command runs)
#   benchmark/run.sh compare A.json B.json two result files against the metrics' bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
