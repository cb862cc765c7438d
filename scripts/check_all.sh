#!/bin/sh
# Run every gate in sequence: the per-subsystem A/B checks (each runs the
# full test suite under its own kill-switch both ways), the engine smoke
# gate, the domains-parallel parity gate and the whole-run benchmark's
# self-test (tiny inputs; fails when a pinned simulation digest drifts).
# Any failure aborts the chain.
set -eu
cd "$(dirname "$0")"

for gate in check_fastpath.sh check_flowcontrol.sh check_pool_timing.sh \
  check_scaling.sh check_torture.sh check_parallel.sh check_recovery.sh \
  check_protocols.sh; do
  echo ""
  echo "==================== $gate ===================="
  sh "$gate"
done

echo ""
echo "==================== perfbench self-test ===================="
(cd .. && python3 perfbench/run.py --self-test)

echo ""
echo "all gates green"
