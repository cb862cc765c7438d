#!/bin/sh
# Engine smoke gate.
#
# 1. Runs a fast 64-node sweep of two Fig. 3 apps and diffs its
#    simulated-cycle table byte for byte against the recorded output in
#    scripts/expected/scale64.txt (host-CPU lines excluded: wall-clock is
#    the only thing allowed to differ).  The recorded table predates the
#    move of the engine onto the plain binary heap, so any change to the
#    engine's (time, salt, seq) drain order shows up here.
# 2. Runs one traced DirNNB ocean run with TT_DEBUG_BLOCK naming a block
#    the run touches, and checks that the per-block protocol trace still
#    reaches stderr (the trace sites are guarded so they cost nothing
#    when the variable is unset; this checks the guard still opens).
set -eu
cd "$(dirname "$0")/.."

dune build bin/tt.exe
TT=_build/default/bin/tt.exe

out=$(mktemp /tmp/tt-scale.XXXXXX)
trace=$(mktemp /tmp/tt-trace.XXXXXX)
trap 'rm -f "$out" "$trace"' EXIT

echo "== 64-node smoke sweep =="
"$TT" scale --apps em3d,ocean -n 64 --scale 0.1 | grep -v "host CPU" >"$out"
cat "$out"
diff -u scripts/expected/scale64.txt "$out"

# 8388636 is a global DirNNB block of ocean's grid at this size.
echo "== per-block trace, TT_DEBUG_BLOCK=8388636 =="
TT_DEBUG_BLOCK=8388636 "$TT" run ocean --machine dirnnb --nodes 4 \
  --scale 0.05 2>"$trace" >/dev/null
lines=$(wc -l <"$trace")
echo "$lines trace lines"
if [ "$lines" -lt 1 ]; then
  echo "FAIL: TT_DEBUG_BLOCK produced no trace lines" >&2
  exit 1
fi

echo "engine smoke: sweep table unchanged, block trace fires"
