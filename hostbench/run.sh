#!/usr/bin/env bash
# Build the benchmark and the vino CLI (its serve reference) from source,
# then run one workload. Run from the repository root:
#
#   bash hostbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
dune build --root . --cache=disabled --display quiet hostbench/main.exe bin/vino.exe >&2
exec ./_build/default/hostbench/main.exe "$@" --vino ./_build/default/bin/vino.exe
