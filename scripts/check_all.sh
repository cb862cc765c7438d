#!/bin/sh
# Every gate, in one pass.  Any failure aborts the chain.
#
# 1. Suite matrix: the full test suite runs once per row — the default
#    configuration, then each simulator kill switch or knob on its own:
#      TT_FASTPATH=0  every blocking point takes the full effect
#                     suspend/resume (the inline fast path is off);
#      TT_ADAPT=0     every page stays on the default invalidate protocol
#                     (tests that exercise switching force TT_ADAPT=1);
#      TT_RECOVERY=0  crash schedules are ignored at Faults.create;
#      TT_DOMAINS=4   the harness sweeps fan out over 4 worker domains.
#    The pinned simulated-cycle rows in test_regression.ml must hold in
#    every row: none of these knobs may move an event.
# 2. Engine smoke: a 64-node sweep diffed byte for byte against
#    scripts/expected/scale64.txt, and a TT_DEBUG_BLOCK trace that must
#    still reach stderr.
# 3. Torture: the litmus smoke grid reports no SC violation; the guarded
#    sabotage knob (TT_SABOTAGE=1) must fail it, be shrunk to a reproducer
#    artifact, and that artifact must replay to the same violation.
# 4. Recovery: two recover sweeps print identical tables, and under
#    TT_RECOVERY=0 the recover command reports the kill switch.
# 5. Worker-domain determinism: the tt proto shootout (table and JSON
#    cells), the scale sweep and a fault sweep are byte-identical on one
#    and four domains.  On hosts with >= 4 cores the parallel scale sweep
#    must also beat the sequential one by TT_CHECK_SPEEDUP_MIN (default
#    1.5x); smaller hosts skip the speedup check.
# 6. The whole-run benchmark's self-test (tiny inputs; fails when a pinned
#    simulation digest drifts).
#
# The bench harness (bench/main.ml) enforces the fast-path, recovery and
# adaptive timing parities in-process as well.
set -eu
cd "$(dirname "$0")/.."

dune build
TT=_build/default/bin/tt.exe

tmp=$(mktemp -d "${TMPDIR:-/tmp}/tt-check.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "==================== suite matrix ===================="
for row in default TT_FASTPATH=0 TT_ADAPT=0 TT_RECOVERY=0 TT_DOMAINS=4; do
  echo "== full suite, $row =="
  if [ "$row" = default ]; then
    dune runtest --force
  else
    env "$row" dune runtest --force
  fi
done

echo "==================== engine smoke ===================="
echo "== 64-node smoke sweep =="
"$TT" scale --apps em3d,ocean -n 64 --scale 0.1 | grep -v "host CPU" \
  >"$tmp/scale64.txt"
cat "$tmp/scale64.txt"
diff -u scripts/expected/scale64.txt "$tmp/scale64.txt"

# 8388636 is a global DirNNB block of ocean's grid at this size.
echo "== per-block trace, TT_DEBUG_BLOCK=8388636 =="
TT_DEBUG_BLOCK=8388636 "$TT" run ocean --machine dirnnb --nodes 4 \
  --scale 0.05 2>"$tmp/trace" >/dev/null
lines=$(wc -l <"$tmp/trace")
echo "$lines trace lines"
if [ "$lines" -lt 1 ]; then
  echo "FAIL: TT_DEBUG_BLOCK produced no trace lines" >&2
  exit 1
fi

echo "==================== torture ===================="
echo "== torture smoke grid =="
"$TT" torture --smoke

echo "== sabotaged grid must be caught and shrunk =="
if TT_SABOTAGE=1 "$TT" torture --smoke --out "$tmp/repro"; then
  echo "FAIL: sabotaged protocol passed the torture grid" >&2
  exit 1
fi
if [ ! -s "$tmp/repro" ]; then
  echo "FAIL: no reproducer artifact written" >&2
  exit 1
fi

echo "== shrunk artifact must replay to the same violation =="
"$TT" torture --replay "$tmp/repro"

echo "==================== recovery ===================="
echo "== recover grid determinism =="
out1=$("$TT" recover --apps ocean --victims 3)
out2=$("$TT" recover --apps ocean --victims 3)
if [ "$out1" != "$out2" ]; then
  echo "FATAL: two identical recover sweeps printed different tables" >&2
  exit 1
fi

echo "== recover respects the kill switch =="
TT_RECOVERY=0 "$TT" recover --apps ocean --victims 3 \
  | grep -q "TT_RECOVERY=0" || {
  echo "FATAL: recover under TT_RECOVERY=0 did not report the kill switch" >&2
  exit 1
}

echo "==================== worker domains ===================="
echo "== shootout, 1 vs 4 domains =="
for d in 1 4; do
  TT_BENCH_JSON="$tmp/cells-$d.json" \
    "$TT" proto --apps synthmig,synthpc \
    --protos stache,migratory,widerep,adaptive -n 8 --domains "$d" \
    | grep -v 'host CPU\|parallel:\|wrote shootout cells' >"$tmp/table-$d.txt"
done
diff -u "$tmp/table-1.txt" "$tmp/table-4.txt"
diff -u "$tmp/cells-1.json" "$tmp/cells-4.json"

echo "== scale sweep, TT_DOMAINS=0 vs TT_DOMAINS=4 =="
t0=$(date +%s)
TT_DOMAINS=0 "$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 \
  | grep -v "host CPU" >"$tmp/seq.txt"
t1=$(date +%s)
TT_DOMAINS=4 "$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 \
  2>/dev/null | grep -v "host CPU" >"$tmp/par.txt"
t2=$(date +%s)
cat "$tmp/seq.txt"
diff -u "$tmp/seq.txt" "$tmp/par.txt"
seq_s=$((t1 - t0))
par_s=$((t2 - t1))
echo "(sequential ${seq_s}s wall, parallel ${par_s}s wall)"

echo "== fault sweep, TT_DOMAINS=0 vs TT_DOMAINS=4 =="
TT_DOMAINS=0 "$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 \
  --scale 0.1 >"$tmp/seq.txt"
TT_DOMAINS=4 "$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 \
  --scale 0.1 2>/dev/null >"$tmp/par.txt"
diff -u "$tmp/seq.txt" "$tmp/par.txt"

ncores=$( (nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null) || echo 1)
min=${TT_CHECK_SPEEDUP_MIN:-1.5}
if [ "$ncores" -ge 4 ]; then
  echo "== speedup gate ($ncores cores, require >= ${min}x) =="
  ok=$(awk -v s="$seq_s" -v p="$par_s" -v m="$min" \
    'BEGIN { print (p > 0 && s / p >= m) ? 1 : 0 }')
  if [ "$ok" != 1 ]; then
    echo "FAIL: parallel sweep took ${par_s}s vs sequential ${seq_s}s" \
      "(need ${min}x)"
    exit 1
  fi
  echo "speedup OK: ${seq_s}s -> ${par_s}s"
else
  echo "(speedup gate skipped: only $ncores core(s); determinism asserted)"
fi

echo "==================== perfbench self-test ===================="
python3 perfbench/run.py --self-test

echo ""
echo "all gates green"
