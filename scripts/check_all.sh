#!/bin/sh
# Run every gate in sequence: the per-subsystem A/B checks (each runs the
# full test suite under its own kill-switch both ways), the engine smoke
# gate and the domains-parallel parity gate.  Any failure aborts the
# chain.
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
echo "all gates green"
