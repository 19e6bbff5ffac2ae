#!/usr/bin/env bash
# Paired rdvperf runs: a parent commit against this checkout.
#
#   scripts/paired_rdvperf.sh [--record N] <parent-ref> <workload[,workload…]|all> [pairs=10] [seed=1]
#
# Builds the parent's `benchmark/` (from `git archive` of <parent-ref>) and
# this working tree's `benchmark/` into separate CARGO_TARGET_DIRs, then
# runs BENCHMARK.json's command on both, `pairs` times, alternating which
# side goes first. Per end-to-end metric it prints each side's median and
# quartiles, how many pairs the change won (ties count for neither), and
# whether the medians are further apart than the parent's own
# inter-quartile range — the rule a claimed gain is judged by (>= 9/10
# wins and beyond the IQR), and the bound a metric may not worsen by.
#
# --record N also writes BENCH_<N>.json at the repo root (medians,
# quartiles, box note); it refuses to overwrite: the trajectory is
# append-only. A recorded entry carries per-layer numbers too: each
# workload is run three more times a side with `--trace 1` (alternating),
# both sides' medians of every metric in BENCHMARK.json's `per_layer`
# list go under the workload's `per_layer` key, and the ones that differ
# by more than 5 % are printed. It also runs the pinned anchor commit
# (`anchor_ref` below) as a third arm, built once the way the parent is:
# each workload runs three more times a side untraced, the three sides
# rotating first place, and the entry stores per end-to-end metric the
# anchor's median and the medians of the per-round ratios parent / anchor
# and change / anchor. Entries recorded on different days or boxes compare
# through those ratios, not through raw nanoseconds; if the anchor stops
# building, re-anchor by editing `anchor_ref` to a newer commit and chain
# the ratios through one entry measured against both. When
# `scripts/contract.sh` has left its
# target/contract/stages.json (wall seconds per contract stage on this box,
# and `build_warm`: whether its build compiled nothing), the entry stores it
# under a `contract` key. Everything else is left under
# target/paired/ (ignored), where builds are reused by the next invocation.
set -euo pipefail

# The anchor every recorded entry is measured against (PR 16's commit).
anchor_ref=81b43d0

record=""
if [ "${1:-}" = "--record" ]; then
  record="$2"
  shift 2
fi
if [ $# -lt 2 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="${3:-10}" seed="${4:-1}"

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
if [ -n "$record" ] && [ -e "$root/BENCH_$record.json" ]; then
  echo "paired_rdvperf: BENCH_$record.json exists; the trajectory is append-only" >&2
  exit 1
fi

work="$root/target/paired"
# unpack <sha>: the commit's tree under $work/<sha>/src, extracted once.
unpack() {
  if [ ! -d "$work/$1/src" ]; then
    mkdir -p "$work/$1/src"
    git -C "$root" archive "$1" | tar -x -C "$work/$1/src"
  fi
}
unpack "$sha"
declare -A src=([parent]="$work/$sha/src" [change]="$root")
declare -A tgt=([parent]="$work/$sha/target" [change]="$work/change/target")
sides="parent change"
anchor=""
if [ -n "$record" ]; then
  anchor="$(git -C "$root" rev-parse --verify "$anchor_ref^{commit}")"
  unpack "$anchor"
  src[anchor]="$work/$anchor/src" tgt[anchor]="$work/$anchor/target"
  sides="parent change anchor"
fi
for side in $sides; do
  CARGO_TARGET_DIR="${tgt[$side]}" cargo build --release --offline \
    --manifest-path "${src[$side]}/benchmark/Cargo.toml" >&2 || {
    echo "paired_rdvperf: the $side side (${src[$side]}) does not build" >&2
    [ "$side" = anchor ] && echo "paired_rdvperf: re-anchor: set anchor_ref in $0 to a newer commit" >&2
    exit 1
  }
done

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
if [ "$workload" = all ]; then
  workloads="$("${tgt[change]}/release/rdvperf" list | cut -f 1)"
else
  workloads="${workload//,/ }"
fi

runs="$work/runs.$$"
mkdir -p "$runs"
trap 'rm -rf "$runs"' EXIT

# run_rounds <workload> <rounds> <trace 0|1> <suffix> <side…>: run the
# sides in turn, rotating which goes first, appending each run's JSON result
# to $runs/<workload>.<side><suffix>.jsonl.
run_rounds() {
  local w="$1" n="$2" trace="$3" suffix="$4" i k side out
  shift 4
  local order=("$@")
  for i in $(seq 1 "$n"); do
    for k in "${!order[@]}"; do
      side="${order[$(((i - 1 + k) % ${#order[@]}))]}"
      out="$(CARGO_TARGET_DIR="${tgt[$side]}" bash "${src[$side]}/benchmark/run.sh" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>"$runs/stderr")" || {
        cat "$runs/stderr" >&2
        echo "paired_rdvperf: $side run of $w failed (round $i, trace $trace)" >&2
        exit 1
      }
      # The last line of a single-workload run is its JSON result.
      tail -n 1 <<<"$out" >>"$runs/$w.$side$suffix.jsonl"
    done
    echo "# $w round $i/$n done (trace $trace${suffix:+, $suffix})" >&2
  done
}

for w in $workloads; do
  run_rounds "$w" "$pairs" 0 "" parent change
  if [ -n "$record" ]; then
    run_rounds "$w" 3 1 .trace parent change
    run_rounds "$w" 3 0 .anchor parent change anchor
  fi
done

box="$(nproc) vCPU, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), $(rustc -V)"
change="$(git -C "$root" describe --always --dirty)"
python3 - "$root" "$runs" "$record" "$sha" "$change" "$anchor" "$seed" "$pairs" "$seconds" "$box" $workloads <<'PY'
import json, statistics, sys

root, runs, record, parent, change, anchor, seed, pairs, seconds, box, *workloads = sys.argv[1:]
contract = json.load(open(f"{root}/BENCHMARK.json"))


def side_stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


out = {}
for w in workloads:
    rows = {
        side: [json.loads(line) for line in open(f"{runs}/{w}.{side}.jsonl")]
        for side in ("parent", "change")
    }
    share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs)) for s, rs in rows.items()}
    out[w] = {"failed_share": share, "metrics": {}}
    print(f"\n{w}  (seed {seed}, {pairs} pairs, failed share parent {share['parent']:.4g} change {share['change']:.4g})")
    print(f"{'metric':<20}{'parent median [q1, q3]':>40}{'change median [q1, q3]':>40}{'change':>9}{'wins':>7}  >IQR  verdict")
    for m in contract["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in rows["parent"]]
        c = [r["metrics"][name]["value"] for r in rows["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        ps, cs = side_stats(p), side_stats(c)
        apart = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
        delta = (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        worse = delta if lower else -delta
        spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (ps, cs))
        if worse < 0 and apart and wins * 10 >= 9 * len(p):
            verdict = "better"
        elif worse > m["bound"]:
            verdict = "WORSE than bound"
        elif spread > m["bound"]:
            verdict = "unresolved (spread > bound)"
        else:
            verdict = "within bound"
        out[w]["metrics"][name] = {
            "unit": m["unit"], "parent": ps, "change": cs,
            "wins": wins, "ties": ties, "beyond_parent_iqr": apart, "verdict": verdict,
        }
        fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"{name:<20}{fmt(ps):>40}{fmt(cs):>40}{delta:>+9.1%}{wins:>4}/{len(p):<2}  {'yes' if apart else 'no':<4}  {verdict}")
    if record:
        traced = {
            side: [json.loads(line)["metrics"] for line in open(f"{runs}/{w}.{side}.trace.jsonl")]
            for side in ("parent", "change")
        }
        layers = out[w]["per_layer"] = {
            m["name"]: {side: statistics.median(r[m["name"]]["value"] for r in rs) for side, rs in traced.items()}
            for m in contract["per_layer"]
        }
        print(f"per-layer medians of {len(traced['parent'])} traced runs a side that differ by more than 5 %:")
        for name, v in layers.items():
            if abs(v["change"] - v["parent"]) > 0.05 * abs(v["parent"]):
                delta = f"{(v['change'] - v['parent']) / v['parent']:+.1%}" if v["parent"] else "new"
                print(f"  {name:<36}{v['parent']:>14.6g}{v['change']:>14.6g}{delta:>9}")
        rounds = {
            side: [json.loads(line)["metrics"] for line in open(f"{runs}/{w}.{side}.anchor.jsonl")]
            for side in ("parent", "change", "anchor")
        }
        print(f"anchor {anchor[:7]}: medians of {len(rounds['anchor'])} rounds, per-round ratios to it")
        for m in contract["end_to_end"]:
            name = m["name"]
            a = [r[name]["value"] for r in rounds["anchor"]]
            ratio = lambda side: statistics.median(
                r[name]["value"] / x if x else float("nan") for r, x in zip(rounds[side], a)
            )
            entry = out[w]["metrics"][name]["anchor"] = {
                "median": statistics.median(a),
                "parent_over_anchor": ratio("parent"),
                "change_over_anchor": ratio("change"),
            }
            print(f"  {name:<20}{entry['median']:>14.6g}{entry['parent_over_anchor']:>9.3f}{entry['change_over_anchor']:>9.3f}")

if record:
    doc = {
        "pr": int(record), "parent": parent, "change": change, "box": box,
        "command": contract["command"], "run_seconds": int(seconds),
        "seed": int(seed), "pairs": int(pairs),
        "anchor": anchor,
        "note": "paired alternating runs (scripts/paired_rdvperf.sh); quartiles as statistics.quantiles(n=4); "
                "wins = pairs where the change beat the parent, ties for neither; "
                "per_layer = medians of three alternating `--trace 1` runs a side; "
                "metrics.*.anchor = the anchor commit's median over three rounds of parent, change and anchor "
                "run in rotating order, and the medians of the per-round ratios parent / anchor and change / anchor",
        "workloads": out,
    }
    try:
        doc["contract"] = json.load(open(f"{root}/target/contract/stages.json"))
        print(f"\n# contract: {doc['contract']['total_seconds']} s, "
              f"build_warm = {json.dumps(doc['contract'].get('build_warm'))}")
    except FileNotFoundError:
        pass
    with open(f"{root}/BENCH_{record}.json", "x") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"\n# wrote BENCH_{record}.json")
PY
