#!/usr/bin/env bash
# Negative-path tests for the tool binaries: every malformed invocation must
# exit with the documented status (1 usage, 2 processing) and a one-line
# diagnostic on stderr — never a crash, never silence. Run as
#   cli_negative_test.sh <mapinv_cli> [<mapinv_serve> <mapinv_bench_serve>]
# (the serve binaries are optional so the script still runs standalone).
set -u

CLI=${1:?usage: cli_negative_test.sh <mapinv_cli> [<serve> <bench_serve>]}
SERVE=${2:-}
BENCH=${3:-}
failures=0
checks=0

# expect_bin <binary> <rc> <stderr-substring> -- <args...>
expect_bin() {
  local bin=$1 want_rc=$2 want_msg=$3
  shift 4  # binary, rc, substring, "--"
  local err rc
  err=$("$bin" "$@" 2>&1 >/dev/null)
  rc=$?
  checks=$((checks + 1))
  if [ "$rc" -ne "$want_rc" ]; then
    echo "FAIL: $(basename "$bin") $* : exit $rc, want $want_rc" >&2
    echo "      stderr: $err" >&2
    failures=$((failures + 1))
    return
  fi
  if [ -n "$want_msg" ] && ! grep -qF -- "$want_msg" <<<"$err"; then
    echo "FAIL: $(basename "$bin") $* : stderr lacks '$want_msg'" >&2
    echo "      stderr: $err" >&2
    failures=$((failures + 1))
  fi
}

# expect <rc> <stderr-substring> -- <args...>   (mapinv_cli shorthand)
expect() {
  expect_bin "$CLI" "$@"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf 'this is not a mapping @@@\n' > "$tmp/garbage.tgd"

# --- flag handling ---------------------------------------------------------
expect 1 "unknown flag '--frobnicate'"      -- --frobnicate invert gen:copy:1,1
expect 1 "expects a value"                  -- invert gen:copy:1,1 --deadline-ms
expect 1 "bad value '-5'"                   -- --deadline-ms=-5 invert gen:copy:1,1
expect 1 "bad value"                        -- --deadline-ms=10x invert gen:copy:1,1
expect 1 "bad value"                        -- --threads=99999999999999999999 invert gen:copy:1,1
expect 1 "bad value"                        -- --max-facts=1e9 invert gen:copy:1,1
expect 1 "bad value"                        -- --on-exhausted=maybe invert gen:copy:1,1
expect 1 "bad value"                        -- --cancel-after-ms=soon invert gen:copy:1,1

# --- command dispatch ------------------------------------------------------
expect 1 ""                                 --
expect 1 "unknown command 'frobnicate'"     -- frobnicate gen:copy:1,1
expect 1 ""                                 -- rewrite gen:copy:1,1

# --- generator specs -------------------------------------------------------
expect 2 "bad generator spec"               -- invert gen:exp:0,4
expect 2 "bad generator spec"               -- invert gen:exp:2,-3
expect 2 "bad generator spec"               -- invert gen:exp:99999999999999999999,2
expect 2 "bad generator spec"               -- invert gen:exp:2,2,2
expect 2 "bad generator spec"               -- invert gen:chain:abc
expect 2 "unknown generator family"         -- invert gen:zipf:3
expect 2 "bad generator spec"               -- invert gen:copy:10000000,2

# --- file and parse errors -------------------------------------------------
expect 2 "cannot open"                      -- invert "$tmp/no_such_file.tgd"
expect 2 ""                                 -- invert "$tmp/garbage.tgd"
expect 2 "cannot open"                      -- exchange gen:copy:1,1 "$tmp/no_such_file.inst"

# --- incremental exchange --------------------------------------------------
printf 'R(x,y) -> T(x,y)\n' > "$tmp/copy.tgd"
printf '{ R(1,2) }\n' > "$tmp/base.inst"
printf '{ R(3,4) }\n' > "$tmp/delta.inst"
expect 1 ""             -- exchange-delta "$tmp/copy.tgd" "$tmp/base.inst"
expect 2 "cannot open"  -- exchange-delta "$tmp/copy.tgd" "$tmp/base.inst" "$tmp/no_such.inst"
expect 2 "cannot open"  -- exchange-delta "$tmp/copy.tgd" "$tmp/no_such.inst" "$tmp/delta.inst"
expect 0 ""             -- exchange-delta "$tmp/copy.tgd" "$tmp/base.inst" "$tmp/delta.inst"

# --- snapshots and the memory budget ---------------------------------------
printf '{ R0(1), R0(2) }\n' > "$tmp/r0.inst"
printf '{ S(1,2,3) }\n' > "$tmp/wrong_schema.inst"
printf 'not a snapshot\n' > "$tmp/garbage.snap"
expect 1 "bad value"               -- --memory-budget-bytes=abc invert gen:copy:1,1
expect 1 "bad value"               -- --memory-budget-bytes=-1 invert gen:copy:1,1
expect 1 "unknown flag '--vector-max-plan-steps'" -- --vector-max-plan-steps=8 invert gen:copy:1,1
expect 1 "expects a file path"     -- --save-instance= invert gen:copy:1,1
expect 1 "expects a file path"     -- --load-instance= invert gen:copy:1,1
expect 2 "cannot open snapshot"    -- --load-instance="$tmp/no_such.snap" exchange gen:copy:1,1
expect 2 "snapshot:"               -- --load-instance="$tmp/garbage.snap" exchange gen:copy:1,1
expect 2 "instance-producing"      -- --save-instance="$tmp/out.snap" invert gen:copy:1,1
expect 2 "cannot create"           -- --save-instance=/no/such/dir/out.snap exchange gen:copy:1,1 "$tmp/r0.inst"
# spill only engages once a segment seals (1024 rows), so build a big-enough
# instance; an unusable --spill-dir must then fail the run cleanly
{ printf '{ R0(0)'; for i in $(seq 1 1200); do printf ', R0(%d)' "$i"; done; printf ' }\n'; } > "$tmp/wide.inst"
expect 2 "cannot create spill file" -- --memory-budget-bytes=1 --spill-dir=/no/such/dir exchange gen:copy:1,1 "$tmp/wide.inst"
# budget=0 means unlimited, never an error
expect 0 ""                        -- --memory-budget-bytes=0 exchange gen:copy:1,1 "$tmp/r0.inst"
# a snapshot from the wrong schema is rejected before the chase touches it
expect 0 ""                        -- --save-instance="$tmp/wrong.snap" core "$tmp/wrong_schema.inst"
expect 2 "does not match the mapping's source schema" \
  -- --load-instance="$tmp/wrong.snap" exchange gen:copy:1,1
# truncated snapshots fail cleanly, whatever the cut point
expect 0 ""                        -- --save-instance="$tmp/good.snap" core "$tmp/r0.inst"
head -c 20 "$tmp/good.snap" > "$tmp/trunc.snap"
expect 2 "snapshot:"               -- --load-instance="$tmp/trunc.snap" exchange gen:copy:1,1
# and the positive twin: save -> load -> re-save round-trips byte-identically
expect 0 ""                        -- --load-instance="$tmp/good.snap" --save-instance="$tmp/resaved.snap" core
checks=$((checks + 1))
if ! cmp -s "$tmp/good.snap" "$tmp/resaved.snap"; then
  echo "FAIL: save -> load -> re-save is not byte-identical" >&2
  failures=$((failures + 1))
fi

# --- durable-job checkpointing (docs/JOBS.md) ------------------------------
printf 'S1(x) -> T(x)\nS2(x) -> T(x)\n' > "$tmp/disj.tgd"
printf '{ S1(1), S2(2) }\n' > "$tmp/disj.inst"
expect 1 "expects a directory path" -- --checkpoint-dir= roundtrip "$tmp/disj.tgd" "$tmp/disj.inst"
expect 1 "bad value"                -- --checkpoint-every=abc roundtrip "$tmp/disj.tgd" "$tmp/disj.inst"
expect 2 "cannot open"              -- roundtrip "$tmp/disj.tgd" "$tmp/disj.inst" "$tmp/no_such_reverse.txt"
# a checkpointed run commits; re-running without --resume must refuse
mkdir "$tmp/job"
expect 0 ""       -- --checkpoint-dir="$tmp/job" --checkpoint-every=1 roundtrip "$tmp/disj.tgd" "$tmp/disj.inst"
expect 2 "resume" -- --checkpoint-dir="$tmp/job" roundtrip "$tmp/disj.tgd" "$tmp/disj.inst"
# resuming with mismatched inputs is refused; with matching inputs the
# resumed output byte-equals the uncheckpointed run's
printf '{ S1(9) }\n' > "$tmp/other.inst"
expect 2 "different inputs" -- --checkpoint-dir="$tmp/job" --resume roundtrip "$tmp/disj.tgd" "$tmp/other.inst"
"$CLI" roundtrip "$tmp/disj.tgd" "$tmp/disj.inst" > "$tmp/clean.out" 2>/dev/null
"$CLI" --checkpoint-dir="$tmp/job" --resume roundtrip "$tmp/disj.tgd" "$tmp/disj.inst" > "$tmp/resumed.out" 2>/dev/null
checks=$((checks + 1))
if ! cmp -s "$tmp/clean.out" "$tmp/resumed.out"; then
  echo "FAIL: resumed roundtrip output differs from the uncheckpointed run" >&2
  failures=$((failures + 1))
fi
# a torn checkpoint directory is a clean error, never a crash
mkdir "$tmp/torn"
printf 'garbage, not a manifest' > "$tmp/torn/manifest-1"
expect 2 "no loadable checkpoint" -- --checkpoint-dir="$tmp/torn" --resume roundtrip "$tmp/disj.tgd" "$tmp/disj.inst"

# --- the positive control: a good invocation still works -------------------
expect 0 ""                                 -- invert gen:copy:1,1

# --- cancellation and partial-result paths ---------------------------------
expect 2 "cancelled"                        -- --cancel-after-ms=0 invert gen:exp:2,5
err=$("$CLI" --cancel-after-ms=0 --on-exhausted=partial --stats-json invert gen:exp:2,5 2>&1 >/dev/null)
rc=$?
checks=$((checks + 1))
if [ "$rc" -ne 0 ] || ! grep -qF '"partial":true' <<<"$err"; then
  echo "FAIL: cancel + --on-exhausted=partial: exit $rc, stderr: $err" >&2
  failures=$((failures + 1))
fi

# --- serve-flag rejection (same shared strict parser as the CLI) -----------
if [ -n "$SERVE" ]; then
  expect_bin "$SERVE" 1 "unknown flag '--frobnicate'" -- --frobnicate
  expect_bin "$SERVE" 1 "need --unix=PATH and/or --tcp=PORT" --
  expect_bin "$SERVE" 1 "expects a value"      -- --tcp
  expect_bin "$SERVE" 1 "bad value '70000'"    -- --tcp=70000
  expect_bin "$SERVE" 1 "bad value '-1'"       -- --tcp=-1
  expect_bin "$SERVE" 1 "bad value '10x'"      -- --tcp=0 --deadline-ms=10x
  expect_bin "$SERVE" 1 "bad value '1e9'"      -- --tcp=0 --max-facts=1e9
  expect_bin "$SERVE" 1 "bad value '0'"        -- --tcp=0 --max-frame-bytes=0
  expect_bin "$SERVE" 1 "bad value"            -- --tcp=0 --threads=99999999999999999999
  expect_bin "$SERVE" 1 "--on-exhausted"       -- --tcp=0 --on-exhausted=maybe
  expect_bin "$SERVE" 1 "bad value 'soon'"     -- --tcp=0 --session-ttl-ms=soon
  expect_bin "$SERVE" 1 "bad value '-1'"       -- --tcp=0 --max-jobs=-1
fi
if [ -n "$BENCH" ]; then
  expect_bin "$BENCH" 1 "unknown flag"         -- --frobnicate
  expect_bin "$BENCH" 1 ""                     --
  expect_bin "$BENCH" 1 "bad value"            -- --tcp=70000
  expect_bin "$BENCH" 1 "bad value"            -- --tcp=0 --requests=0
  expect_bin "$BENCH" 1 "bad value"            -- --tcp=0 --requests=abc
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_negative_test: $failures of $checks checks failed" >&2
  exit 1
fi
echo "cli_negative_test: all $checks checks passed"
