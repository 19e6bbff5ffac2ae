#!/usr/bin/env bash
# rdvperf driver.
#
#   run.sh                       the six workloads, end to end (fresh process each)
#   run.sh --traced              the six traced runs; writes out/*.spans.json and out/cost_stack.md
#   run.sh --smoke               the same code path at 1/50 of the op counts
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                one run of one workload, as BENCHMARK.json's command is invoked
#
# Builds `--release --offline` once, prints one line per metric
# (`workload metric value unit n`; in single-workload mode a JSON result
# object follows as the last line) and exits non-zero on any failed
# correctness check or cross-repetition mismatch. Run it from anywhere:
# paths are taken from the script's own location, and nothing outside the
# checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

workload="" seed=1 seconds=10 trace=0 traced=0 smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

# One repetition takes about two seconds; measure for about `--seconds`.
reps=$(( seconds / 2 > 2 ? seconds / 2 : 2 ))

if [ -n "$workload" ]; then
  if [ "$trace" = 1 ]; then
    exec "$target/release/rdvperf_traced" "$workload" --traced --seed "$seed" --out "$here/out" ${smoke[@]+"${smoke[@]}"}
  fi
  exec "$target/release/rdvperf" "$workload" --seed "$seed" --reps "$reps" ${smoke[@]+"${smoke[@]}"}
fi

echo "# nproc $(nproc)"
echo "# cpu $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)"
echo "# rustc $(rustc -V)"
echo "# seed $seed reps $reps ${smoke[*]:-}"

workloads=$("$target/release/rdvperf" list | cut -f 1)
for w in $workloads; do
  if [ "$traced" = 1 ]; then
    "$target/release/rdvperf_traced" "$w" --traced --seed "$seed" --out "$here/out" ${smoke[@]+"${smoke[@]}"} | grep -v '^{'
  else
    "$target/release/rdvperf" "$w" --seed "$seed" --reps "$reps" ${smoke[@]+"${smoke[@]}"} | grep -v '^{'
  fi
done

if [ "$traced" = 1 ]; then
  {
    echo "# Cost stack"
    echo
    echo "One table per workload: what one op costs in host time, predicted as the sum of"
    echo "measured layer costs (calls per op × ns per call, each measured by replaying the"
    echo "run's captured payloads and end state through the layer's public functions) and"
    echo "compared with the untraced \`host_ns_per_op\`. Written by \`run.sh --traced\`; see"
    echo "\`../README.md\` for the method."
    echo
    echo "Machine: $(nproc) vCPU, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), $(rustc -V); seed $seed${smoke[*]:+, smoke scale}."
    echo
    for w in $workloads; do cat "$here/out/$w.stack.md"; done
  } > "$here/out/cost_stack.md"
  echo "# wrote $here/out/cost_stack.md"
fi
