#!/usr/bin/env bash
# Print where the hot kernels sit in a native binary:
#
#   tools/hotsyms.sh BINARY
#
# e.g. tools/hotsyms.sh .nfbench/build/default/nfbench/main.exe
#
# One line per function: its start address mod 64 (its offset in a
# 64-byte cache line and fetch block), the address, and the symbol with
# the compiler's numeric suffix dropped, so the output of two builds can
# be diffed. The functions are the NUM core's hot loops
# (Maxmin.solve_sparse, Incidence.*_into, Xwi_core.flow_weights,
# residuals and price_links_range) and the packet engine's event heap
# (Fheap.push, Fheap.drop). Two builds whose benchmark timings differ
# while only these offsets differ are a code-placement effect, not a
# code change.
set -euo pipefail
bin=${1:?usage: tools/hotsyms.sh BINARY}
pattern='__(Maxmin\.solve_sparse|Incidence\.[a-z_]+_into|Xwi_core\.(flow_weights|residuals|price_links_range)|Fheap\.(push|drop))_[0-9]+$'
nm "$bin" | grep -E " [Tt] caml[A-Za-z_]*${pattern}" | sort -k3 |
  while read -r addr _ sym; do
    printf '%2d  0x%s  %s\n' $((16#$addr % 64)) "$addr" "${sym%_*}"
  done
