#!/usr/bin/env bash
# The whole behavioural contract, one command:
#
#   scripts/contract.sh
#
# Runs, in order, stopping at the first stage that fails:
#
#   build         cargo build --release --workspace
#   test          cargo test --workspace -q
#   bench_test    the nested benchmark workspace's own tests (release)
#   lint          cargo fmt --check, clippy -D warnings, rdv-lint
#   figures       full-mode `figures` (all sixteen) and the three committed
#                 telemetry exports (`--metrics F3 --metrics F4 --metrics F6`)
#   results_diff  git diff --exit-code results/ — every regenerated byte
#                 equals the committed one
#   shards_cmp    `figures --quick --shards 1` vs `--shards 8` on F5–F8: the
#                 100 k-host end of the shard-identity invariant (the small
#                 end is tests/shard_determinism.rs)
#   jobs_cmp      F2 and `--trace F2`, two separate `--jobs 1` processes and a
#                 `--jobs 4` one, all byte-identical
#   soak          release chaos_soak, shard_determinism, shard_audit, and the
#                 calendar queue's `--ignored` dense model test (200 k live)
#   rdvperf_smoke benchmark/run.sh --smoke, then git diff --exit-code on
#                 benchmark/Cargo.lock: the frozen lock must survive the build
#
# Quick-mode legs run with target/contract/<leg>/ as working directory, so
# their output lands in target/contract/<leg>/results/ and never overwrites
# the committed full-mode files. Each stage's output is also kept in
# target/contract/logs/<stage>.log. On exit the script prints wall seconds
# per stage and writes them, with F5's `[figures] F5 measured:` readings of
# this box, to target/contract/stages.json (`scripts/paired_rdvperf.sh
# --record` files that under the trajectory entry's `contract` key). There
# `build_warm` says whether the build stage compiled nothing (no
# `Compiling` line in its log): stage seconds of a cold run, which also
# recompiles in `test`, `bench_test` and `soak`, do not compare with a warm
# one's.
#
# The contract never re-blesses: it refuses to start while RDV_BLESS (the
# switch that rewrites the pinned results/chaos_*.txt fingerprints) is on,
# which is any value but empty or 0, as tests/chaos_soak.rs reads it.
set -euo pipefail

if [ -n "${RDV_BLESS:-}" ] && [ "$RDV_BLESS" != 0 ]; then
  echo "contract: RDV_BLESS is on; unset it (re-bless with cargo test --test chaos_soak, then review the diff)" >&2
  exit 2
fi

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$root"
out="$root/target/contract"
figures="$root/target/release/figures"
rm -rf "$out"
mkdir -p "$out/logs"

# leg <name> <figures args…>: one figures process in target/contract/<name>/.
leg() {
  local dir="$out/$1"
  shift
  mkdir -p "$dir"
  (cd "$dir" && "$figures" "$@" >tables.txt)
}

# same <file> <leg> <leg>…: the first leg's results/<file> equals every other's.
same() {
  local file="$1" first="$2" other
  shift 2
  for other in "$@"; do
    cmp "$out/$first/results/$file" "$out/$other/results/$file"
  done
}

stage_build() { cargo build --release --workspace; }
stage_test() { cargo test --workspace -q; }
stage_bench_test() { cargo test --release --offline --manifest-path benchmark/Cargo.toml; }
stage_lint() {
  cargo fmt --all --check
  cargo clippy --workspace --all-targets -- -D warnings
  cargo run --release -p rdv-lint
}
stage_figures() {
  "$figures" >"$out/tables.txt"
  "$figures" --metrics F3 --metrics F4 --metrics F6 >>"$out/tables.txt"
}
stage_results_diff() { git diff --exit-code -- results/; }
stage_shards_cmp() {
  local f
  leg shards1 --quick --shards 1 F5 F6 F7 F8
  leg shards8 --quick --shards 8 F5 F6 F7 F8
  for f in f5 f6 f7 f8; do same "$f.json" shards1 shards8; done
}
stage_jobs_cmp() {
  leg jobs1-a --quick --jobs 1 F2 --trace F2
  leg jobs1-b --quick --jobs 1 F2 --trace F2
  leg jobs4 --quick --jobs 4 F2 --trace F2
  same f2.json jobs1-a jobs1-b jobs4
  same trace_f2.json jobs1-a jobs1-b jobs4
}
stage_soak() {
  cargo test --release --test chaos_soak
  cargo test --release --test shard_determinism
  cargo test --release --test shard_audit
  cargo test --release -p rdv-netsim --lib queue:: -- --ignored
}
stage_rdvperf_smoke() {
  benchmark/run.sh --smoke
  git diff --exit-code -- benchmark/Cargo.lock
}

names=()
secs=()
failed=""
passed=false
started=$EPOCHREALTIME

# Seconds (one decimal) from $1 to now, both as $EPOCHREALTIME.
since() { awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }'; }

report() {
  local i sep="" total warm=false
  total="$(since "$started")"
  if [ -f "$out/logs/build.log" ] && ! grep -q Compiling "$out/logs/build.log"; then warm=true; fi
  echo
  echo "contract: wall seconds per stage"
  for i in "${!names[@]}"; do printf '  %-14s %8s\n' "${names[$i]}" "${secs[$i]}"; done
  printf '  %-14s %8s\n' total "$total"
  {
    printf '{\n "passed": %s,\n "build_warm": %s,\n "box": "%s",\n "stages": {' "$passed" "$warm" \
      "$(nproc) vCPU, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), $(rustc -V)"
    for i in "${!names[@]}"; do
      printf '%s"%s": %s' "$sep" "${names[$i]}" "${secs[$i]}"
      sep=", "
    done
    printf '},\n "total_seconds": %s,\n "f5_measured": [' "$total"
    sed -n 's/^\[figures\] F5 measured: \(.*\)$/"\1"/p' "$out/logs/figures.log" 2>/dev/null | paste -sd, - || true
    printf ' ]\n}\n'
  } >"$out/stages.json"
  if "$passed"; then
    echo "contract: passed; wrote target/contract/stages.json"
  else
    echo "contract: FAILED at stage ${failed:-?} (log: target/contract/logs/$failed.log)" >&2
  fi
}
trap report EXIT

for name in build test bench_test lint figures results_diff shards_cmp jobs_cmp soak rdvperf_smoke; do
  echo "== contract: $name"
  failed="$name"
  t0=$EPOCHREALTIME
  # A subshell with its own `set -e`, outside any `if`/`||` (which would
  # switch -e off inside it), so a stage stops at its first failing command.
  set +e
  (set -e; "stage_$name") 2>&1 | tee "$out/logs/$name.log"
  status=${PIPESTATUS[0]}
  set -e
  names+=("$name")
  secs+=("$(since "$t0")")
  [ "$status" = 0 ] || exit 1
done
passed=true
