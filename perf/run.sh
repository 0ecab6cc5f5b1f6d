#!/usr/bin/env bash
# Builds the benchmark binary once and runs it from the repository root.
#
#   bash perf/run.sh                         every workload, untraced then traced,
#                                            each in a fresh process, one after another
#   bash perf/run.sh --workload warm_read --seed 3 --seconds 20 --trace 0
#                                            one run; the last line of stdout is the
#                                            result as one JSON object
#   bash perf/run.sh -repeat 5               the spread check
#
# Everything it writes — binary, Go build cache, traces, run records — goes
# under perf/out/, which is git-ignored.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p perf/out
export GOCACHE="$root/perf/out/.gocache" GOTOOLCHAIN=local
(cd perf && go build -trimpath -o "$root/perf/out/aggperf" .)
exec perf/out/aggperf -out perf/out "$@"
