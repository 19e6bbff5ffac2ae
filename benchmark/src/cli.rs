//! Command line of `rdvperf` and `rdvperf-traced`.
//!
//! ```text
//! rdvperf <workload> [--seed S] [--reps N] [--smoke]     end-to-end run
//! rdvperf <workload> --traced [--seed S] [--smoke] [--out DIR]   per-layer run
//! rdvperf calibrate [--seed S]                           sensitivity self-check
//! rdvperf list                                           workload names
//! rdvperf manifest                                       BENCHMARK.json, from the catalogue
//! ```
//!
//! Every run prints one line per metric (`workload metric value unit n`)
//! and, last, one JSON object `{correct, attempted, failed, metrics}`. A
//! failed correctness check or a cross-repetition mismatch prints the
//! reason on stderr and exits 1 without printing a result.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::workloads::{self, Env, Workload};
use crate::{calibrate, catalogue, measure, traced};

/// Measured repetitions of an end-to-end run unless `--reps` says otherwise.
const DEFAULT_REPS: usize = 5;

/// One reported metric.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
}

struct Args {
    command: String,
    seed: u64,
    reps: usize,
    smoke: bool,
    traced: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        seed: 1,
        reps: DEFAULT_REPS,
        smoke: false,
        traced: false,
        out: PathBuf::from("benchmark/out"),
    };
    let number = |flag: &str, argv: &mut dyn Iterator<Item = String>| -> Result<u64, String> {
        let v = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: `{v}` is not a whole number"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" => args.seed = number("--seed", &mut argv)?,
            "--reps" => args.reps = number("--reps", &mut argv)?.max(1) as usize,
            "--smoke" => args.smoke = true,
            "--traced" => args.traced = true,
            "--out" => {
                args.out = PathBuf::from(argv.next().ok_or("--out needs a directory")?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_empty() => args.command = word.to_string(),
            word => return Err(format!("unexpected argument `{word}`")),
        }
    }
    if args.command.is_empty() {
        return Err("missing workload name (try `rdvperf list`)".into());
    }
    Ok(args)
}

/// Print the metric lines and the closing JSON object.
pub fn report(workload: &str, attempted: u64, failed: u64, metrics: &[Metric], json: &[&Metric]) {
    for m in metrics {
        println!("{workload} {} {} {} {}", m.name, m.value, m.unit, m.n);
    }
    let body: Vec<String> = json
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn end_to_end(workload: &dyn Workload, args: &Args, env: &Env) -> Result<(), String> {
    let result = measure::end_to_end(workload, args.seed, args.reps, env)?;
    let metrics: Vec<Metric> = result
        .metrics()
        .into_iter()
        .map(|(name, value, unit, n)| Metric { name: name.to_string(), value, unit, n })
        .collect();
    // `failed_share` is 0 by construction on every workload; the contract's
    // `failed`/`attempted` carry it, and bounded metrics must never be 0.
    let json: Vec<&Metric> = metrics.iter().filter(|m| m.name != "failed_share").collect();
    report(workload.name(), result.sim.attempted, result.sim.failed, &metrics, &json);
    Ok(())
}

/// Entry point shared by both binaries.
pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rdvperf: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env { scale: if args.smoke { 50 } else { 1 }, ..Env::plain() };
    let outcome = match args.command.as_str() {
        "list" => {
            for w in workloads::all() {
                println!("{}\t{}", w.name(), w.why());
            }
            Ok(())
        }
        "calibrate" => calibrate::run(args.seed, &env),
        "manifest" => {
            let all = workloads::all();
            let named: Vec<(&str, &str)> = all.iter().map(|w| (w.name(), w.why())).collect();
            print!("{}", catalogue::manifest(&named));
            Ok(())
        }
        name => match workloads::by_name(name) {
            None => Err(format!("unknown workload `{name}` (try `rdvperf list`)")),
            Some(w) if args.traced => traced::run(w.as_ref(), args.seed, env.scale, &args.out),
            Some(w) => end_to_end(w.as_ref(), &args, &env),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rdvperf: {}: FAILED: {e}", args.command);
            ExitCode::from(1)
        }
    }
}
