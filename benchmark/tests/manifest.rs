//! `BENCHMARK.json` at the repository root is generated from the metric
//! catalogue and the workload list (`rdvperf manifest`); this test fails
//! when the two drift apart.

use rdvperf::catalogue;
use rdvperf::workloads;

#[test]
fn benchmark_json_matches_the_catalogue() {
    let all = workloads::all();
    let named: Vec<(&str, &str)> = all.iter().map(|w| (w.name(), w.why())).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalogue::manifest(&named),
        "regenerate with `rdvperf manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_manifest_stays_inside_the_contract() {
    let all = workloads::all();
    assert!((2..=8).contains(&all.len()));
    for w in &all {
        assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}: why too long", w.name());
    }
    assert!(catalogue::END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    let setup_bound = catalogue::END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap().3;
    for (name, unit, _, bound) in catalogue::END_TO_END {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound out of range");
        assert!(*bound <= setup_bound, "{name}: setup_s must carry the largest bound");
        assert!(unit.len() <= 16);
    }
    assert!((1..=128).contains(&catalogue::PER_LAYER.len()));
    let mut names: Vec<&str> = catalogue::END_TO_END
        .iter()
        .map(|m| m.0)
        .chain(catalogue::PER_LAYER.iter().map(|m| m.0))
        .chain(all.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(name.len() <= 64, "{name}: name too long");
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
