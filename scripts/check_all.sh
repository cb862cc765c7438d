#!/bin/sh
# Every gate, in one pass.  Any failure aborts the chain.
#
# 1. Suite matrix: the full test suite runs twice — the default
#    configuration, then with TT_FASTPATH=0, where every blocking point
#    takes the full effect suspend/resume (the inline fast path is off).
#    The pinned simulated-cycle rows in test_regression.ml must hold in
#    both rows: the fast path may not move an event.  Worker-domain parity
#    is tested in-process (test_parallel.ml) and by section 5.
# 2. Engine smoke: a 64-node sweep diffed byte for byte against
#    scripts/expected/scale64.txt, four 32-node Figure 3 cells diffed
#    against scripts/expected/fig3_32.txt (suspension counters excluded),
#    small verified Figure 3/4, shootout and synthetic sweeps diffed
#    against scripts/expected/experiments.txt, a TT_DEBUG_BLOCK trace that
#    must still reach stderr, and tt verify: every benchmark on every
#    machine against its sequential oracle.
# 3. Torture: the litmus smoke grid reports no SC violation, and its table
#    (cycles, salted and faulted columns) is diffed byte for byte against
#    scripts/expected/torture.txt; the guarded sabotage knob
#    (TT_SABOTAGE=1) must fail it, be shrunk to a reproducer artifact, and
#    that artifact must replay to the same violation; the sabotaged grid's
#    table is byte-identical at --domains 0 and 4 (sabotage is per machine,
#    not a process global).
# 4. Recovery: the Stache and DirNNB recover grids are diffed byte for byte
#    against scripts/expected/recover.txt (DirNNB's cells re-issue
#    survivors' misses and re-send a rejoining node's), the tt faults
#    crash-axis tables against scripts/expected/faults_crash.txt, lossy
#    fault sweeps (1% and 5% drops, bursts, two credits; Stache and DirNNB,
#    every cell oracle-verified) against scripts/expected/faults_lossy.txt,
#    em3d and appbt recover grids (unrecoverable, watchdog-stall, rehomed
#    and masked cells) against scripts/expected/recover_apps.txt, and two
#    identical sweeps print identical tables.
# 5. Worker-domain determinism: the tt proto shootout (table and JSON
#    cells), the scale sweep, Figure 3 and a fault sweep are
#    byte-identical on one (or no) worker domain and on four.  On hosts
#    with >= 4 cores the parallel scale sweep must also beat the
#    sequential one by TT_CHECK_SPEEDUP_MIN (default 1.5x); smaller hosts
#    skip the speedup check.
# 6. Knob census, build flags and profiler: the only TT_* environment
#    variables named in lib/ are TT_DEBUG_BLOCK and TT_FASTPATH (bin/ may
#    read its own); Engine.reserve/claim/reservation appear in lib/ only
#    under lib/sim/ (controllers yield through Tt_sim.Ctrl); lib/
#    compiles with -inline (lib/dune) and perfbench/ does not, so the
#    benchmark's host-speed yardstick compiles unchanged; the default
#    (release) profile keeps the dev profile's warning and strict flags;
#    lib/'s .cmx files export function bodies (no -opaque), so inlining
#    crosses modules; a --profile dev build of tt prints byte-identical
#    runs and recover grid; tt profile takes samples and prints exactly
#    tt run's output ahead of its report.
# 7. The whole-run benchmark's self-test (tiny inputs; fails when a pinned
#    simulation digest drifts).
set -eu
cd "$(dirname "$0")/.."

dune build
TT=_build/default/bin/tt.exe

tmp=$(mktemp -d "${TMPDIR:-/tmp}/tt-check.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "==================== suite matrix ===================="
for row in default TT_FASTPATH=0; do
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

# At 32 nodes the protocol controllers often yield with an empty queue, so
# these cells lean on reserved dispatches (DESIGN.md "Reserved dispatches").
# The suspension counters are left out: with fewer events queued, more
# blocking points complete inline, at the same simulated cycles.
echo "== 32-node Figure 3 cells =="
for app in em3d barnes; do
  for m in dirnnb stache; do
    "$TT" run "$app" --machine "$m" --nodes 32 --scale 0.1 --cache 4 \
      --stats --verify
  done
done | grep -v suspensions >"$tmp/fig3_32.txt"
diff -u scripts/expected/fig3_32.txt "$tmp/fig3_32.txt"

echo "== small figures, shootout and synthetic sweeps =="
{
  "$TT" fig3 --apps ocean,em3d --nodes 8 --scale 0.05 --verify
  "$TT" fig4 --pcts 0,50 --nodes 8 --scale 0.02 --verify
  "$TT" proto --apps em3d,synthpc -n 8 --scale 0.1
  "$TT" sweep -n 8 --remote 0,40
  "$TT" sweep -n 8 --remote 0,40 --contended
} | grep -v "host CPU" >"$tmp/experiments.txt"
diff -u scripts/expected/experiments.txt "$tmp/experiments.txt"

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

echo "== every benchmark verifies on every catalogue machine =="
"$TT" verify -n 4 --scale 0.05

echo "==================== torture ===================="
echo "== torture smoke grid =="
"$TT" torture --smoke

echo "== clean torture table =="
"$TT" torture --smoke --no-shrink --table >"$tmp/torture.txt"
diff -u scripts/expected/torture.txt "$tmp/torture.txt"

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

echo "== sabotaged grid, --domains 0 vs --domains 4 =="
for d in 0 4; do
  if TT_SABOTAGE=1 "$TT" torture --smoke --no-shrink --table --domains "$d" \
    >"$tmp/sabotage-$d.txt" 2>/dev/null; then
    echo "FAIL: sabotaged grid passed at --domains $d" >&2
    exit 1
  fi
done
diff -u "$tmp/sabotage-0.txt" "$tmp/sabotage-4.txt"

echo "==================== recovery ===================="
echo "== recover grids =="
{
  "$TT" recover --apps ocean --victims 3
  "$TT" recover --apps barnes,mp3d --victims 3,7 -m dirnnb
} >"$tmp/recover.txt"
diff -u scripts/expected/recover.txt "$tmp/recover.txt"

echo "== faults crash axis =="
{
  "$TT" faults --apps ocean --drops 1 --seeds 1 --crash never,quick,late
  "$TT" faults --apps barnes --drops 1 --seeds 1 --crash never,late -m dirnnb
} >"$tmp/faults_crash.txt"
diff -u scripts/expected/faults_crash.txt "$tmp/faults_crash.txt"

echo "== faults lossy transport =="
{
  "$TT" faults --apps em3d,mp3d,barnes --drops 1,5 --seeds 1,2 --burst \
    --credits 2 --scale 0.1
  "$TT" faults --apps mp3d,barnes --drops 1,5 --seeds 1,2 -m dirnnb --scale 0.1
} >"$tmp/faults_lossy.txt"
diff -u scripts/expected/faults_lossy.txt "$tmp/faults_lossy.txt"

echo "== recover grids, em3d and appbt =="
{
  "$TT" recover --apps em3d,appbt --victims 3 --scale 0.1
  "$TT" recover --apps em3d,appbt --victims 3 --scale 0.1 -m dirnnb
} >"$tmp/recover_apps.txt"
diff -u scripts/expected/recover_apps.txt "$tmp/recover_apps.txt"

echo "== recover grid determinism =="
out1=$("$TT" recover --apps ocean --victims 3)
out2=$("$TT" recover --apps ocean --victims 3)
if [ "$out1" != "$out2" ]; then
  echo "FATAL: two identical recover sweeps printed different tables" >&2
  exit 1
fi

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

echo "== scale sweep, --domains 0 vs --domains 4 =="
t0=$(date +%s)
"$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 --domains 0 \
  | grep -v "host CPU" >"$tmp/seq.txt"
t1=$(date +%s)
"$TT" scale --apps em3d,ocean -n 64,128 --scale 0.1 --domains 4 \
  2>/dev/null | grep -v "host CPU" >"$tmp/par.txt"
t2=$(date +%s)
cat "$tmp/seq.txt"
diff -u "$tmp/seq.txt" "$tmp/par.txt"
seq_s=$((t1 - t0))
par_s=$((t2 - t1))
echo "(sequential ${seq_s}s wall, parallel ${par_s}s wall)"

echo "== Figure 3, --domains 0 vs --domains 4 =="
"$TT" fig3 --nodes 8 --scale 0.05 --domains 0 >"$tmp/seq.txt"
"$TT" fig3 --nodes 8 --scale 0.05 --domains 4 2>/dev/null >"$tmp/par.txt"
diff -u "$tmp/seq.txt" "$tmp/par.txt"

echo "== fault sweep, --domains 0 vs --domains 4 =="
"$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 --scale 0.1 \
  --domains 0 >"$tmp/seq.txt"
"$TT" faults --apps em3d,mp3d --drops 5 --seeds 1 -n 4 --scale 0.1 \
  --domains 4 2>/dev/null >"$tmp/par.txt"
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

echo "==================== knobs, build flags and profiler ===================="
echo "== lib/ reads exactly TT_DEBUG_BLOCK and TT_FASTPATH =="
knobs=$(grep -rhoE '"TT_[A-Z0-9_]+"' lib --include='*.ml' | tr -d '"' \
  | sort -u | tr '\n' ' ')
echo "lib/ environment knobs: $knobs"
if [ "$knobs" != "TT_DEBUG_BLOCK TT_FASTPATH " ]; then
  echo "FAIL: lib/ must read exactly TT_DEBUG_BLOCK and TT_FASTPATH" >&2
  exit 1
fi

echo "== reservations stay inside tt_sim =="
# A run-to-completion controller is written once, as Tt_sim.Ctrl; a
# second loop that reserves and claims its own dispatches would escape the
# property that checks reservations (test_sim's prop_reserve_parity).
if grep -rnE 'Engine\.(reserve|claim|reservation)' lib \
  --include='*.ml' --include='*.mli' | grep -v '^lib/sim/'; then
  echo "FAIL: Engine.reserve/claim/reservation used outside lib/sim/" >&2
  exit 1
fi

echo "== lib/ inlines, perfbench/ does not =="
if ! dune printenv lib | grep -q -- "-inline"; then
  echo "FAIL: lib/ is not compiled with -inline (see lib/dune)" >&2
  exit 1
fi
if dune printenv perfbench | grep -q -- "-inline"; then
  echo "FAIL: perfbench/ is compiled with -inline; its yardstick must not be" >&2
  exit 1
fi

echo "== the default profile keeps dev's lint =="
# The default build is the release profile (dune-workspace), which would
# drop dune's dev warnings-as-errors unless the workspace restores them.
dune printenv lib | sed -n '/^(flags/,/^(ocamlc_flags/p' >"$tmp/flags.txt"
dune printenv --profile dev lib | sed -n '/^(flags/,/^(ocamlc_flags/p' \
  >"$tmp/flags-dev.txt"
diff -u "$tmp/flags-dev.txt" "$tmp/flags.txt"
for f in -strict-sequence '@1..3@5..28'; do
  if ! grep -q -- "$f" "$tmp/flags.txt"; then
    echo "FAIL: dune printenv lib lacks $f (see dune-workspace)" >&2
    exit 1
  fi
done

echo "== lib/ is not compiled -opaque =="
# An -opaque .cmx exports no function bodies: its approximation is "_".
cmx=_build/default/lib/sim/.tt_sim.objs/native/tt_sim__Engine.cmx
approx=$(ocamlobjinfo "$cmx" | sed -n '/^Clambda approximation:/{n;p;}')
echo "Engine.cmx approximation:$approx"
case "$approx" in
  *function*) ;;
  *) echo "FAIL: $cmx exports no function bodies (-opaque is back?)" >&2
    exit 1 ;;
esac

echo "== dev-profile build prints the same simulation =="
dune build --profile dev --build-dir "$tmp/dev" bin/tt.exe
DEV_TT="$tmp/dev/default/bin/tt.exe"
for cell in "em3d --machine dirnnb" "em3d --machine stache" \
  "ocean --machine dirnnb" "ocean --machine stache" "em3d --machine widerep"; do
  # $cell is split into words on purpose.
  "$TT" run $cell --nodes 8 --scale 0.1 --stats --verify >"$tmp/rel.txt"
  "$DEV_TT" run $cell --nodes 8 --scale 0.1 --stats --verify >"$tmp/dev.txt"
  diff -u "$tmp/rel.txt" "$tmp/dev.txt"
done
"$TT" recover --apps ocean --victims 3 >"$tmp/rel.txt"
"$DEV_TT" recover --apps ocean --victims 3 >"$tmp/dev.txt"
diff -u "$tmp/rel.txt" "$tmp/dev.txt"

echo "== tt profile: same output as tt run, nonzero samples =="
"$TT" run em3d --machine stache --nodes 32 --scale 0.3 >"$tmp/run.txt"
"$TT" profile em3d --machine stache --nodes 32 --scale 0.3 >"$tmp/profile.txt"
head -n "$(wc -l <"$tmp/run.txt")" "$tmp/profile.txt" | diff -u "$tmp/run.txt" -
samples=$(sed -n 's/^profile: \([0-9]*\) samples.*/\1/p' "$tmp/profile.txt")
echo "${samples:-0} samples"
if [ "${samples:-0}" -lt 1 ]; then
  echo "FAIL: tt profile took no samples" >&2
  exit 1
fi

echo "==================== perfbench self-test ===================="
python3 perfbench/run.py --self-test

echo ""
echo "all gates green"
