//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p rdv-bench --bin figures --release -- \
//!     [--quick] [--jobs N] [--list] [--trace EXP]… [IDS…]
//! ```
//!
//! With no IDs, runs every experiment in `experiments::CATALOG` (see
//! `--list`). Text tables go to stdout; JSON goes to `results/<id>.json`.
//!
//! `--list` prints every experiment ID with its one-line description.
//!
//! `--trace EXP` re-runs one representative point of EXP with the causal
//! tracer enabled, writes a Perfetto-loadable Chrome trace to
//! `results/trace_<exp>.json`, and prints a critical-path summary. With
//! only `--trace` flags (no positional IDs), the full sweeps are skipped.
//!
//! `--metrics EXP` re-runs one representative point of EXP with the
//! telemetry plane (gauge sampling + live invariant monitor) enabled,
//! writes the deterministic time series to `results/metrics_<exp>.json`,
//! and prints a sparkline summary attributing the figure's shape to the
//! gauges. Like `--trace`, metrics-only invocations skip the full sweeps.
//!
//! `--jobs N` caps the worker threads used to fan independent sweep
//! points out (default: available parallelism; `--jobs 1` is serial).
//! Every point carries its own derived seed and rows are collected in
//! point order, so the output bytes — including trace JSON — are
//! identical for every jobs value.
//!
//! `--shards N` sets the engine's default shard count: every simulation
//! in the run executes on N parallel shards under conservative lookahead
//! (see DESIGN.md §9). Output bytes are identical for every N, including
//! 1 — `scripts/contract.sh` cmp-checks this. No experiment names a shard
//! count of its own: this flag is the only way to set one.

use std::io::Write;

use rdv_bench::experiments;
use rdv_bench::experiments::CATALOG;

/// Every experiment ID, space-separated, in run order.
fn known_ids() -> String {
    CATALOG.iter().map(|(id, ..)| *id).collect::<Vec<_>>().join(" ")
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: figures [--quick] [--jobs N] [--shards N] [--list] [--trace EXP] \
         [--metrics EXP] [{}]",
        known_ids()
    );
    std::process::exit(2);
}

fn list_exit() -> ! {
    println!("experiments:");
    for (id, desc, _) in CATALOG {
        let traced = if experiments::trace::TRACEABLE.contains(id) { "  [--trace]" } else { "" };
        let metered =
            if experiments::metrics::METRICABLE.contains(id) { "  [--metrics]" } else { "" };
        println!("  {id:<4} {desc}{traced}{metered}");
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut wanted: Vec<String> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut metered: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--quick" {
            // consumed above
        } else if a == "--list" {
            list_exit();
        } else if a == "--jobs" {
            i += 1;
            let Some(n) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                eprintln!("[figures] --jobs needs a positive integer");
                usage_exit();
            };
            rdv_bench::par::set_jobs(n);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            let Ok(n) = v.parse::<usize>() else {
                eprintln!("[figures] --jobs needs a positive integer");
                usage_exit();
            };
            rdv_bench::par::set_jobs(n);
        } else if a == "--shards" {
            i += 1;
            let Some(n) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                eprintln!("[figures] --shards needs a positive integer");
                usage_exit();
            };
            rdv_netsim::set_default_shards(n);
        } else if let Some(v) = a.strip_prefix("--shards=") {
            let Ok(n) = v.parse::<usize>() else {
                eprintln!("[figures] --shards needs a positive integer");
                usage_exit();
            };
            rdv_netsim::set_default_shards(n);
        } else if a == "--trace" {
            i += 1;
            let Some(e) = args.get(i) else {
                eprintln!("[figures] --trace needs an experiment id");
                usage_exit();
            };
            traces.push(e.trim_start_matches('-').to_uppercase());
        } else if let Some(v) = a.strip_prefix("--trace=") {
            traces.push(v.to_uppercase());
        } else if a == "--metrics" {
            i += 1;
            let Some(e) = args.get(i) else {
                eprintln!("[figures] --metrics needs an experiment id");
                usage_exit();
            };
            metered.push(e.trim_start_matches('-').to_uppercase());
        } else if let Some(v) = a.strip_prefix("--metrics=") {
            metered.push(v.to_uppercase());
        } else if a.starts_with("--") {
            eprintln!("[figures] warning: ignoring unknown flag {a}");
        } else {
            wanted.push(a.trim_start_matches('-').to_uppercase());
        }
        i += 1;
    }
    for w in &wanted {
        if !CATALOG.iter().any(|(id, ..)| id == w) {
            eprintln!(
                "[figures] warning: unknown experiment id {w} — run `figures --list` \
                 for ids and descriptions (known: {})",
                known_ids()
            );
        }
    }
    let _ = std::fs::create_dir_all("results");
    let mut ran = 0;
    // With only --trace/--metrics flags, skip the full sweeps.
    if (traces.is_empty() && metered.is_empty()) || !wanted.is_empty() {
        for (id, _, run) in CATALOG {
            if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
                continue;
            }
            eprintln!("[figures] running {id}{}…", if quick { " (quick)" } else { "" });
            let series = run(quick);
            ran += 1;
            println!("{}", series.to_text());
            let path = format!("results/{}.json", id.to_lowercase());
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", series.to_json());
                    eprintln!("[figures] wrote {path}");
                }
                Err(e) => eprintln!("[figures] could not write {path}: {e}"),
            }
        }
    }
    for exp in &traces {
        match experiments::trace::run(exp, quick) {
            Some(report) => {
                ran += 1;
                let path = format!("results/trace_{}.json", exp.to_lowercase());
                match std::fs::write(&path, &report.json) {
                    Ok(()) => {
                        eprintln!("[figures] wrote {path} (open in Perfetto or chrome://tracing)")
                    }
                    Err(e) => eprintln!("[figures] could not write {path}: {e}"),
                }
                print!("{}", report.summary);
            }
            None => eprintln!(
                "[figures] warning: no traced companion for {exp} (traceable: {}; run \
                 `figures --list`)",
                experiments::trace::TRACEABLE.join(" ")
            ),
        }
    }
    for exp in &metered {
        match experiments::metrics::run(exp, quick) {
            Some(report) => {
                ran += 1;
                let path = format!("results/metrics_{}.json", exp.to_lowercase());
                match std::fs::write(&path, &report.json) {
                    Ok(()) => eprintln!("[figures] wrote {path}"),
                    Err(e) => eprintln!("[figures] could not write {path}: {e}"),
                }
                print!("{}", report.summary);
            }
            None => eprintln!(
                "[figures] warning: no metrics companion for {exp} (metricable: {}; run \
                 `figures --list`)",
                experiments::metrics::METRICABLE.join(" ")
            ),
        }
    }
    if ran == 0 {
        usage_exit();
    }
}
