//! Smoke test: the analytic/fast experiment harnesses keep producing
//! well-formed tables (the simulation-heavy ones are covered by their own
//! module tests in `rdv-bench`).

use rdv_bench::experiments::CATALOG;
use rendezvous::objspace::ObjId;

/// The committed artifact set and the catalogue agree, both ways: a
/// missing or orphaned `results/*.json` fails here, not at the next
/// regeneration. Reads the committed files; runs no experiment.
#[test]
fn every_catalog_entry_has_a_committed_artifact_and_none_is_orphaned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (id, ..) in CATALOG {
        let path = dir.join(format!("{}.json", id.to_lowercase()));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{id} has no committed {}: {e}", path.display()));
        assert!(
            json.starts_with(&format!("{{\"id\":\"{id}\",")),
            "{} does not hold experiment {id}",
            path.display()
        );
    }
    for entry in std::fs::read_dir(&dir).expect("results/ is committed") {
        let name = entry.expect("readable entry").file_name().into_string().expect("utf-8 name");
        if name.starts_with("metrics_") || name.starts_with("trace_") {
            continue;
        }
        let id = name.strip_suffix(".json").map(str::to_uppercase);
        assert!(
            id.is_some_and(|id| CATALOG.iter().any(|(known, ..)| *known == id)),
            "results/{name} belongs to no experiment in CATALOG"
        );
    }
}

#[test]
fn fast_experiment_tables_are_well_formed() {
    for series in [rdv_bench_t1(), rdv_bench_t2(), rdv_bench_a3(), rdv_bench_a4()] {
        assert!(!series.rows.is_empty(), "{}", series.id);
        for row in &series.rows {
            assert_eq!(row.len(), series.columns.len(), "{}", series.id);
        }
        let json = series.to_json();
        assert!(json.contains(&format!("\"id\":\"{}\"", series.id)));
    }
    let _ = ObjId(0); // anchor the umbrella crate import
}

fn rdv_bench_t1() -> rdv_bench::Series {
    rdv_bench::experiments::t1::run(true)
}
fn rdv_bench_t2() -> rdv_bench::Series {
    rdv_bench::experiments::t2::run(true)
}
fn rdv_bench_a3() -> rdv_bench::Series {
    rdv_bench::experiments::a3::run(true)
}
fn rdv_bench_a4() -> rdv_bench::Series {
    rdv_bench::experiments::a4::run(true)
}
