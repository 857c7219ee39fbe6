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
# residuals and price_links_range), STFQ's and the event overflow's heap
# (Fheap.push, Fheap.drop), the event engine's dispatch loop and
# out-of-line sorted insert (Sim.run_loop, Sim.insert_sorted), and the
# packet path: Network.try_transmit, forward and arrive, STFQ's enqueue
# and dequeue_exn closures (printed as Queue_disc.stfq.*), the end-host
# path (Host.handle_data and handle_ack, register_ack, and the send loop
# try_send_window, next_seq and send_one), and Swift's per-packet hooks
# (Proto_swift.on_send and on_ack). Two builds whose benchmark timings
# differ while only these offsets differ are a code-placement effect,
# not a code change.
set -euo pipefail
bin=${1:?usage: tools/hotsyms.sh BINARY}
syms=$(nm "$bin")
print() {
  while read -r addr sym; do
    printf '%2d  0x%s  %s\n' $((16#$addr % 64)) "$addr" "$sym"
  done
}
pattern='__(Maxmin\.solve_sparse|Incidence\.[a-z_]+_into|Xwi_core\.(flow_weights|residuals|price_links_range)|Fheap\.(push|drop)|Sim\.(run_loop|insert_sorted)|Network\.(try_transmit|forward|arrive)|Host\.(handle_data|handle_ack|register_ack|try_send_window|next_seq|send_one)|Proto_swift\.(on_send|on_ack))_[0-9]+$'
grep -E " [Tt] caml[A-Za-z_]*${pattern}" <<<"$syms" | sort -k3 |
  while read -r addr _ sym; do echo "$addr ${sym%_*}"; done | print
# Queue_disc defines an enqueue/dequeue_exn closure per discipline; STFQ's
# are the ones whose stamps fall between [stfq]'s and [pfabric]'s, since
# stamps follow source order.
grep -E " [Tt] camlNf_sim__Queue_disc\.(stfq|pfabric|enqueue|dequeue_exn)_[0-9]+$" <<<"$syms" |
  awk '{ n = split($3, p, "_"); stamp = p[n] + 0; name = $3;
         sub(/^camlNf_sim__Queue_disc\./, "", name); sub(/_[0-9]+$/, "", name);
         if (name == "stfq") lo = stamp; else if (name == "pfabric") hi = stamp;
         else { addr[stamp] = $1; fn[stamp] = name } }
       END { for (s in fn) if (s > lo && s < hi)
               print addr[s], "camlNf_sim__Queue_disc.stfq." fn[s] }' |
  sort -k2 | print
