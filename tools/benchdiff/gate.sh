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
# the diff to .benchgate/benchdiff.md and .benchgate/benchdiff.json. Each
# run's fingerprint line goes to <workload>.fingerprints beside its
# result line, and .benchgate/fingerprints.md compares base and head per
# workload and seed; that comparison is a report and never gates, nor
# does .benchgate/hotsyms.md, the hot functions' offsets mod 64 in each
# side's binary. The exit status is nf_benchdiff's: 0 pass, 1 fail, 2
# could not run.
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
# last line of its stdout) to DIR/WORKLOAD.jsonl, and its fingerprint
# line (the one before), prefixed with the seed and trace level, to
# DIR/WORKLOAD.fingerprints. A run whose correctness check fails exits 1
# but still prints its lines, for nf_benchdiff to judge; a run that
# prints nothing leaves its workload a line short.
bench() {
  local last
  last=$( (cd "$1" && { bash nfbench/run.sh --workload "$3" --seed "$4" \
      --seconds "$seconds" --trace "$5" || true; }) | tail -n 2)
  [ -n "$last" ] || return 0
  printf '%s\n' "$last" | tail -n 1 >> "$2/$3.jsonl"
  printf '%s\n' "$last" | sed -n "s/^fingerprint /seed=$4 trace=$5 /p" \
    >> "$2/$3.fingerprints"
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

# Base against head, per workload and seed: the distinct fingerprints
# each side printed over its untraced and traced runs.
python3 - "$out" $workloads <<'EOF'
import sys
out, workloads = sys.argv[1], sys.argv[2:]
def read(side, w):
    runs = {}
    try:
        lines = open("%s/%s/%s.fingerprints" % (out, side, w)).read().splitlines()
    except FileNotFoundError:
        lines = []
    for line in lines:
        seed, _trace, fp = line.split(" ", 2)
        runs.setdefault(seed.split("=")[1], set()).add(fp)
    return runs
rows = ["# nfbench fingerprints, base against head", "",
        "| workload | seed | verdict | base | head |", "|---|---|---|---|---|"]
for w in workloads:
    old, new = read("old", w), read("new", w)
    for seed in sorted(set(old) | set(new), key=int):
        o, n = sorted(old.get(seed, ())), sorted(new.get(seed, ()))
        verdict = ("equal" if o == n and len(o) == 1
                   else "missing" if not o or not n else "differs")
        rows.append("| %s | %s | %s | %s | %s |"
                    % (w, seed, verdict, "<br>".join(o), "<br>".join(n)))
open("%s/fingerprints.md" % out, "w").write("\n".join(rows) + "\n")
EOF

# Where the hot functions sit in each side's nfbench binary: their
# offsets mod 64 from tools/hotsyms.sh (this tree's copy, on both), one
# row per function, the rows whose offset moved marked. A benchmark
# delta between builds whose hot code only moved is a placement effect.
hotsyms() {
  bash "$root/tools/hotsyms.sh" "$1/.nfbench/build/default/nfbench/main.exe" || true
}
hotsyms "$out/base" > "$out/hotsyms.old"
hotsyms "$root" > "$out/hotsyms.new"
python3 - "$out" <<'EOF'
import sys
out = sys.argv[1]
def read(side):
    offsets = {}
    for line in open("%s/hotsyms.%s" % (out, side)).read().splitlines():
        off, _addr, sym = line.split()
        offsets[sym] = int(off)
    return offsets
old, new = read("old"), read("new")
rows = ["# Hot functions' offsets mod 64, base against head", "",
        "| function | base | head | |", "|---|---|---|---|"]
moved = 0
for sym in sorted(set(old) | set(new)):
    o, n = old.get(sym), new.get(sym)
    mark = "" if o == n else "moved"
    moved += bool(mark)
    rows.append("| %s | %s | %s | %s |"
                % (sym, "-" if o is None else o, "-" if n is None else n, mark))
rows += ["", "%d of %d functions moved." % (moved, len(set(old) | set(new)))]
open("%s/hotsyms.md" % out, "w").write("\n".join(rows) + "\n")
EOF

dune build ./tools/benchdiff/nf_benchdiff.exe >&2
./_build/default/tools/benchdiff/nf_benchdiff.exe \
  --md "$out/benchdiff.md" --json "$out/benchdiff.json" "$out/old" "$out/new"
