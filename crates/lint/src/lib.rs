//! rdv-lint: the workspace determinism linter.
//!
//! "Same seed ⇒ byte-identical run" is the repo's core experimental claim
//! (ROADMAP §determinism). The sim crates keep that promise only if nothing
//! in them consults ambient state: hasher seeds, wall clocks, OS entropy,
//! environment variables. This linter makes the discipline *static*:
//!
//! - **D1 `hash-order`** — `std::collections::{HashMap, HashSet}` are banned
//!   in the deterministic crates; iteration order depends on the per-process
//!   `RandomState` seed. Use `rdv_det::{DetMap, DetSet}` instead, or annotate
//!   `// rdv-lint: allow(hash-order) -- <reason>` when order provably never
//!   escapes.
//! - **D2 `ambient-*`** — `Instant::now`, `SystemTime`, `thread_rng`,
//!   `rand::random`, `env::var` are banned in the same crates.
//! - **D3 `counter-name` / `gauge-name` / `event-name`** — string
//!   literals entering the stats counter, metrics gauge and trace label
//!   APIs must match the dotted lowercase scheme and are checked against
//!   the one name table, `rdv_trace::names::NAMES`, which the linter links
//!   rather than parses: every gauge must be registered, and a counter or
//!   label must be when the table has entries of its kind in its
//!   namespace. D3 alone also runs over the code that reads names back
//!   (`crates/bench/src`, `tests/`, `examples/`).
//! - **D4 `wire-parity`** — every variant of the wire-message enums must be
//!   handled by both the encode and decode functions.
//! - **D5 `shard-interference`** — outside the engine's own barrier
//!   internals (`engine/*.rs`, `queue.rs`, `audit.rs`), sim code may not name
//!   the event-ordering types (`CalendarQueue`, `EventKey`) or reach into
//!   shard/coordinator state; cross-shard effects flow through the outbox
//!   API at the window barrier, nothing else.
//! - **D6 `rng-stream`** — randomness flows through the per-node `NodeCtx`
//!   stream the engine seeds; `from_entropy`, RNG cloning, and stream
//!   construction outside `engine/` are flagged (pre-sim generator streams
//!   carry an `allow(rng-stream)` with the salt-split justification).
//! - **D7 `handler-parity`** — every node dispatch must handle or explicitly
//!   ignore every variant of the wire enums it demuxes; wildcard arms that
//!   would silently swallow new message kinds are rejected.
//!
//! See DESIGN.md §11 "Correctness tooling" for the full contract.

pub mod lexer;
pub mod rules;

use rdv_trace::export::json_escape;
use rdv_trace::names::NAMES;
use rules::{HandlerTarget, LintConfig, ParityTarget};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id, e.g. `D1/hash-order` or `allow-syntax`.
    pub rule: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Crates whose behavior must be bit-reproducible across processes. `rpc` and
/// `bench` sit outside the sim boundary (they may time real wall-clock work).
pub const DET_CRATES: &[&str] = &[
    "det",
    "netsim",
    "memproto",
    "discovery",
    "objspace",
    "core",
    "wire",
    "p4rt",
    "crdt",
    "trace",
    "metrics",
    "load",
    "gossip",
];

/// D4 targets: wire enums and the functions that must cover every variant.
const PARITY_TARGETS: &[(&str, &[ParityTarget])] = &[
    (
        "crates/memproto/src/msg.rs",
        &[
            ParityTarget {
                enum_name: "MsgBody",
                fns: &["msg_type", "encode_fields", "decode_fields"],
            },
            ParityTarget { enum_name: "NackCode", fns: &["to_byte", "from_byte"] },
        ],
    ),
    (
        "crates/p4rt/src/pipeline.rs",
        &[ParityTarget { enum_name: "ControlMsg", fns: &["encode", "decode"] }],
    ),
];

/// D7 targets: every node dispatch that demuxes a wire enum. The enum lives
/// in the protocol crate; the handlers live wherever the nodes do — D7 is
/// the cross-crate completion of D4's same-file codec parity.
const HANDLER_TARGETS: &[HandlerTarget] = &[
    HandlerTarget {
        enum_file: "crates/memproto/src/msg.rs",
        enum_name: "MsgBody",
        handler_file: "crates/discovery/src/host.rs",
        fns: &["on_packet"],
    },
    HandlerTarget {
        enum_file: "crates/memproto/src/msg.rs",
        enum_name: "NackCode",
        handler_file: "crates/discovery/src/host.rs",
        fns: &["complete"],
    },
    HandlerTarget {
        enum_file: "crates/memproto/src/msg.rs",
        enum_name: "MsgBody",
        handler_file: "crates/discovery/src/controller.rs",
        fns: &["on_packet"],
    },
    HandlerTarget {
        enum_file: "crates/memproto/src/msg.rs",
        enum_name: "MsgBody",
        handler_file: "crates/core/src/runtime.rs",
        fns: &["on_packet"],
    },
    HandlerTarget {
        enum_file: "crates/memproto/src/msg.rs",
        enum_name: "MsgBody",
        handler_file: "crates/memproto/src/transport.rs",
        fns: &["on_receive"],
    },
    HandlerTarget {
        enum_file: "crates/p4rt/src/pipeline.rs",
        enum_name: "ControlMsg",
        handler_file: "crates/p4rt/src/pipeline.rs",
        fns: &["on_packet"],
    },
];

/// Code outside the deterministic crates that reads counters, gauges and
/// labels back by name: the figures, the root tests and the examples. It
/// gets D3 alone, so a typo there fails the lint instead of reading 0.
const READ_SIDE_DIRS: &[&str] = &["crates/bench/src", "tests", "examples"];

/// Lint every deterministic crate under `root` (the workspace root), and
/// the read-side directories for D3. Returns diagnostics sorted by (file,
/// line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let cfg = LintConfig { names: NAMES };
    let mut diags = Vec::new();
    for krate in DET_CRATES {
        for sub in ["src", "tests", "benches"] {
            let dir = root.join("crates").join(krate).join(sub);
            if dir.is_dir() {
                lint_dir(root, &dir, &cfg, false, &mut diags)?;
            }
        }
    }
    for rel in READ_SIDE_DIRS {
        let dir = root.join(rel);
        if dir.is_dir() {
            lint_dir(root, &dir, &cfg, true, &mut diags)?;
        }
    }

    for (rel, targets) in PARITY_TARGETS {
        let path = root.join(rel);
        match fs::read_to_string(&path) {
            Ok(src) => diags.extend(rules::lint_enum_parity(rel, &src, targets)),
            Err(_) => diags.push(Diagnostic {
                file: rel.to_string(),
                line: 1,
                rule: "D4/wire-parity".to_string(),
                message: "wire-parity target file is missing".to_string(),
            }),
        }
    }

    for target in HANDLER_TARGETS {
        let missing = |file: &str, what: &str| Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: "D7/handler-parity".to_string(),
            message: what.to_string(),
        };
        let Ok(enum_src) = fs::read_to_string(root.join(target.enum_file)) else {
            diags.push(missing(target.enum_file, "handler-parity enum file is missing"));
            continue;
        };
        let Some(variants) = rules::enum_variants_in(&enum_src, target.enum_name) else {
            diags.push(missing(
                target.enum_file,
                &format!("expected `enum {}` in this file; not found", target.enum_name),
            ));
            continue;
        };
        match fs::read_to_string(root.join(target.handler_file)) {
            Ok(src) => diags.extend(rules::lint_handler_parity(
                target.handler_file,
                &src,
                target.enum_name,
                &variants,
                target.fns,
            )),
            Err(_) => {
                diags.push(missing(target.handler_file, "handler-parity handler file is missing"))
            }
        }
    }

    rules::sort_diagnostics(&mut diags);
    Ok(diags)
}

/// Render diagnostics as a stable JSON array (one object per finding, sorted
/// like the text output). Hand-rolled so the linter needs no external
/// crate; CI turns these into GitHub error annotations.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

/// Recursively lint the `.rs` files under `dir`, in sorted path order:
/// every per-file rule, or with `d3_only` just D3.
fn lint_dir(
    root: &Path,
    dir: &Path,
    cfg: &LintConfig,
    d3_only: bool,
    diags: &mut Vec<Diagnostic>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            lint_dir(root, &path, cfg, d3_only, diags)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            diags.extend(rules::lint_file(&rel, &src, cfg, d3_only));
        }
    }
    Ok(())
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`. This is how the binary finds the repo root regardless of
/// the invocation directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
