#!/usr/bin/env bash
# The base-vs-head benchmark gate: run every nfbench workload on a base
# revision and on the working tree, on the same machine, and diff the two
# with nf_benchdiff.
#
#   bash tools/benchdiff/gate.sh BASE_REV
#
# Run from the repository root. BASE_REV is checked out as a detached git
# worktree at .benchgate/base and removed again on exit. Each workload
# runs untraced at --seconds 10 in the order base, head, head, base, on
# seeds 1 and 2 (the end-to-end metrics), then traced once on each side
# (the per-layer metrics, reported but never gated). The result lines go
# to .benchgate/old/<workload>.jsonl and .benchgate/new/<workload>.jsonl,
# the diff to .benchgate/benchdiff.md and .benchgate/benchdiff.json. The
# exit status is nf_benchdiff's: 0 pass, 1 fail, 2 could not run.
set -euo pipefail
base_rev=${1:?usage: bash tools/benchdiff/gate.sh BASE_REV}
root=$(pwd)
out=$root/.benchgate
seconds=10
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

rm -rf "$out/old" "$out/new"
mkdir -p "$out/old" "$out/new"
rm -rf "$out/base"
git worktree prune
git worktree add --detach "$out/base" "$base_rev" >&2
trap 'git worktree remove --force "$out/base"' EXIT

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# bench TREE DIR WORKLOAD SEED TRACE: append the run's result line (the
# last line of its stdout) to DIR/WORKLOAD.jsonl. A run whose correctness
# check fails exits 1 but still prints its line, for nf_benchdiff to
# judge; a run that prints nothing leaves its workload a line short.
bench() {
  (cd "$1" && { bash nfbench/run.sh --workload "$3" --seed "$4" \
      --seconds "$seconds" --trace "$5" || true; }) | tail -n 1 >> "$2/$3.jsonl"
}

for w in $workloads; do
  for seed in 1 2; do
    bench "$out/base" "$out/old" "$w" "$seed" 0
    bench "$root" "$out/new" "$w" "$seed" 0
    bench "$root" "$out/new" "$w" "$seed" 0
    bench "$out/base" "$out/old" "$w" "$seed" 0
  done
  bench "$out/base" "$out/old" "$w" 1 1
  bench "$root" "$out/new" "$w" 1 1
  if [ ! -s "$out/old/$w.jsonl" ]; then
    echo "gate.sh: $base_rev printed no result for $w" >&2
    exit 2
  fi
done

dune build ./tools/benchdiff/nf_benchdiff.exe >&2
./_build/default/tools/benchdiff/nf_benchdiff.exe \
  --md "$out/benchdiff.md" --json "$out/benchdiff.json" "$out/old" "$out/new"
