#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it; every
# argument passes through, e.g.
#   bash benchmark/run.sh --workload listing1-500 --seed 42 --seconds 10 --trace 0
# Build output goes to stderr, so stdout ends with the result line.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
