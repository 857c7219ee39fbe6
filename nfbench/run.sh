#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash nfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The release build goes to .nfbench/build
# (the dune cache is off, so nothing is written outside the tree); build
# output goes to stderr, so the result object stays the last line of
# stdout.
set -euo pipefail
root=$(pwd)
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
mkdir -p "$root/.nfbench"
dune build --root . --cache=disabled --profile release \
  --build-dir "$root/.nfbench/build" ./nfbench/main.exe >&2
exec "$root/.nfbench/build/default/nfbench/main.exe" "$@"
