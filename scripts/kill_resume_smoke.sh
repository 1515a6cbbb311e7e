#!/usr/bin/env bash
# Kill-and-resume smoke test, run by CI on every push.
#
# Exercises the resilience surface end to end, outside the Go test
# harness (real binaries, real signals, real files):
#
#   1. gtscsim: a single run is interrupted (-timeout), must exit 3
#      and write a checkpoint; -resume must complete it with output
#      bit-identical to an uninterrupted reference run.
#   2. gtscbench: a sweep with a journal is killed by SIGTERM, must
#      exit 3; rerunning with the same journal must replay the
#      completed simulations, finish the rest, and print the same
#      table as an uninterrupted reference sweep. Two sweeps take this
#      path: Table II on the session's machine, and the L1 geometry
#      sweep, whose cells override the machine.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/gtscsim" ./cmd/gtscsim
go build -o "$workdir/gtscbench" ./cmd/gtscbench

fail() { echo "kill_resume_smoke: FAIL: $*" >&2; exit 1; }

echo "== gtscsim: interrupt, checkpoint, resume =="
sim_flags=(-workload CC -scale 64)

set +e
"$workdir/gtscsim" "${sim_flags[@]}" -checkpoint "$workdir/cc.ckpt" -timeout 400ms \
  >"$workdir/sim_interrupted.out" 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || fail "interrupted gtscsim exited $rc, want 3 (output: $(cat "$workdir/sim_interrupted.out"))"
[ -f "$workdir/cc.ckpt" ] || fail "no checkpoint written on interrupt"

"$workdir/gtscsim" "${sim_flags[@]}" -checkpoint "$workdir/cc.ckpt" -resume \
  >"$workdir/sim_resumed.out" 2>&1 || fail "resume failed: $(cat "$workdir/sim_resumed.out")"
grep -q "replay digest verified" "$workdir/sim_resumed.out" || fail "resume did not verify the replay digest"
[ ! -f "$workdir/cc.ckpt" ] || fail "checkpoint not cleaned up after completion"

"$workdir/gtscsim" "${sim_flags[@]}" >"$workdir/sim_reference.out" 2>&1
# Drop the resume banner and the engine scheduling counters (a resumed
# run legitimately splits a cycle-skip window at the pause cycle);
# everything else (all stats) must match the uninterrupted run exactly.
grep -v "^resumed \|^engine: " "$workdir/sim_resumed.out" >"$workdir/sim_resumed_stats.out"
grep -v "^engine: " "$workdir/sim_reference.out" >"$workdir/sim_reference_stats.out"
diff -u "$workdir/sim_reference_stats.out" "$workdir/sim_resumed_stats.out" \
  || fail "resumed run differs from uninterrupted reference"
echo "   OK: exit 3 on interrupt, verified resume, bit-identical stats"

# bench_leg NAME DELAY FLAGS...: SIGTERM a journaled gtscbench sweep
# DELAY seconds in, resume it from the journal, and diff the result
# against an uninterrupted sweep.
bench_leg() {
  local name=$1 delay=$2
  shift 2
  echo "== gtscbench $name: SIGTERM mid-sweep, journal resume =="
  local jrnl="$workdir/$name.jrnl" out="$workdir/bench_$name"

  set +e
  "$workdir/gtscbench" "$@" -journal "$jrnl" >"$out.interrupted" 2>&1 &
  local bench_pid=$!
  sleep "$delay"
  kill -TERM "$bench_pid" 2>/dev/null
  wait "$bench_pid"
  local rc=$?
  set -e
  [ "$rc" -eq 3 ] || fail "interrupted gtscbench $name exited $rc, want 3 (output: $(cat "$out.interrupted"))"
  [ -f "$jrnl" ] || fail "$name: no journal written"

  "$workdir/gtscbench" "$@" -journal "$jrnl" >"$out.resumed" 2>&1 \
    || fail "$name: journal resume failed: $(cat "$out.resumed")"
  grep -q "^journal: replayed " "$out.resumed" || fail "$name: resume did not replay journaled runs"

  "$workdir/gtscbench" "$@" >"$out.reference" 2>&1
  grep -v "^journal: " "$out.resumed" >"$out.resumed_table"
  diff -u "$out.reference" "$out.resumed_table" \
    || fail "$name: resumed sweep differs from uninterrupted reference"
  echo "   OK: exit 3 on SIGTERM, journal replayed, bit-identical table"
}

bench_leg table2 0.8 -exp table2 -scale 4 -sms 8 -banks 4 -j 4
bench_leg cache 1.5 -exp cache -scale 4 -sms 4 -banks 2 -j 2

echo "kill_resume_smoke: PASS"
