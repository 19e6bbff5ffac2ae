//! The determinism rules (D1–D7) and the allow-comment escape hatch.
//!
//! Rules operate on the token stream from [`crate::lexer`], so strings and
//! comments never trigger false positives. Each finding carries the rule id,
//! the suppression category (if suppressible), and a `file:line` location.

use crate::lexer::{tokenize, TokKind, Token};
use crate::Diagnostic;
use rdv_trace::names::{scheme_ok, Kind, Name};
use std::collections::BTreeMap;

/// Suppression categories accepted by `// rdv-lint: allow(<category>) -- <reason>`.
pub const ALLOW_CATEGORIES: &[&str] = &[
    "hash-order",
    "ambient-time",
    "ambient-rand",
    "ambient-env",
    "counter-name",
    "event-name",
    "gauge-name",
    "shard-interference",
    "rng-stream",
    "handler-parity",
];

/// Files that *are* the sharded engine's barrier internals: the window
/// coordinator (`engine/mod.rs`), per-shard execution (`engine/shard.rs`),
/// their unit tests, the calendar queue, and the shard-audit
/// instrumentation. D5 exempts them (they implement the protocol the rule
/// protects) and the D6 stream-construction check exempts them too
/// (`engine/mod.rs` is the one sanctioned node-stream seeding site).
const ENGINE_INTERNAL_FILES: &[&str] = &[
    "crates/netsim/src/engine/mod.rs",
    "crates/netsim/src/engine/shard.rs",
    "crates/netsim/src/engine/tests.rs",
    "crates/netsim/src/queue.rs",
    "crates/netsim/src/audit.rs",
];

/// Engine-internal types that node/scenario code must never name: holding a
/// `CalendarQueue` or forging an `EventKey` outside the engine bypasses the
/// canonical ordering that makes sharded runs byte-identical.
const D5_ENGINE_TYPES: &[&str] = &["CalendarQueue", "EventKey"];

/// Members (fields and methods) of the engine's shard/coordinator state.
/// A `.member` access to any of these from outside the barrier internals is
/// shard interference: mutating foreign-shard node/link/timer state or
/// driving windows by hand instead of going through the outbox API.
const D5_ENGINE_MEMBERS: &[&str] = &[
    "outbox",
    "merge_buf",
    "port_links",
    "build_ports",
    "dir_slot",
    "lookahead_ns",
    "zero_lookahead",
    "drain_outboxes",
    "process_window",
    "run_window",
    "dispatch_coord",
    "next_key",
];

/// Configuration shared across files.
pub struct LintConfig {
    /// The name table D3 checks call sites against — in the workspace,
    /// `rdv_trace::names::NAMES`.
    pub names: &'static [Name],
}

impl LintConfig {
    /// D3: the finding for a name literal of `kind`, if any. Every literal
    /// must follow the dotted lowercase scheme. A gauge must be
    /// registered; a counter or label must be registered when the table
    /// has entries of its kind in its namespace (first dotted segment).
    pub fn check_name(&self, kind: Kind, literal: &str) -> Option<String> {
        let noun = d3_rule(kind).2;
        if !scheme_ok(literal) {
            return Some(format!(
                "{noun} name `{literal}` violates the dotted lowercase scheme \
                 `[a-z0-9_]+(.[a-z0-9_]+)*`"
            ));
        }
        fn namespace(name: &str) -> Option<&str> {
            name.split_once('.').map(|(ns, _)| ns)
        }
        let mut of_kind = self.names.iter().filter(|n| n.kind == kind);
        let scoped = kind == Kind::Gauge
            || namespace(literal)
                .is_some_and(|ns| of_kind.clone().any(|n| namespace(n.name) == Some(ns)));
        (scoped && !of_kind.any(|n| n.name == literal)).then(|| {
            format!(
                "`{literal}` is not a registered {noun}; add it to NAMES in \
                 crates/trace/src/names.rs or fix the typo"
            )
        })
    }
}

/// D3 rule id, allow category and noun for names of `kind`.
fn d3_rule(kind: Kind) -> (&'static str, &'static str, &'static str) {
    match kind {
        Kind::Counter => ("D3/counter-name", "counter-name", "counter"),
        Kind::Gauge => ("D3/gauge-name", "gauge-name", "gauge"),
        Kind::Label | Kind::Event => ("D3/event-name", "event-name", "span label"),
    }
}

/// A D3 call site at `code[i]`: a string literal passed to the stats
/// counter API (`.add`, `.inc`, `.get`, `.intern`, `CounterId::intern`),
/// the metrics gauge API (`.gauge`, `.rate_per_s`, `.windowed_pct`,
/// `.windowed_ratio_pct`) or the trace label API (`.span_begin`,
/// `.span_end`, `.mark`, `.mark_linked`, and the sampler class key
/// `.sample`). Names built at run time are not literals and are exempt.
fn name_site<'t>(code: &[&'t Token], i: usize) -> Option<(Kind, &'t Token)> {
    let (kind, arg) = if seq_at(code, i, &["CounterId", ":", ":", "intern", "("]) {
        (Kind::Counter, code.get(i + 5)?)
    } else if seq_at(code, i, &["."]) && seq_at(code, i + 2, &["("]) {
        let kind = match code[i + 1].text.as_str() {
            "add" | "inc" | "get" | "intern" => Kind::Counter,
            "gauge" | "rate_per_s" | "windowed_pct" | "windowed_ratio_pct" => Kind::Gauge,
            "span_begin" | "span_end" | "mark" | "mark_linked" | "sample" => Kind::Label,
            _ => return None,
        };
        (kind, code.get(i + 3)?)
    } else {
        return None;
    };
    (arg.kind == TokKind::StrLit).then_some((kind, arg))
}

/// Parsed allow comments: line → categories allowed on that line and the next.
struct AllowMap {
    /// (line, category) pairs. An entry on line N covers findings on N and N+1,
    /// so the annotation can sit on its own line above the code it excuses.
    allows: Vec<(usize, String)>,
}

impl AllowMap {
    fn covers(&self, line: usize, category: &str) -> bool {
        self.allows.iter().any(|(l, c)| c == category && (*l == line || l + 1 == line))
    }
}

/// Extract allow comments; malformed ones are themselves diagnostics — a
/// suppression that silently fails to parse would be worse than no linter.
fn collect_allows(file: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) -> AllowMap {
    let mut allows = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(idx) = t.text.find("rdv-lint:") else { continue };
        let rest = t.text[idx + "rdv-lint:".len()..].trim();
        let malformed = |msg: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: "allow-syntax".to_string(),
                message: msg.to_string(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            malformed("rdv-lint comment must be `allow(<category>) -- <reason>`", diags);
            continue;
        };
        let Some(close) = args.find(')') else {
            malformed("unterminated `allow(`", diags);
            continue;
        };
        let category = args[..close].trim().to_string();
        if !ALLOW_CATEGORIES.contains(&category.as_str()) {
            malformed(
                &format!(
                    "unknown allow category `{category}` (expected one of: {})",
                    ALLOW_CATEGORIES.join(", ")
                ),
                diags,
            );
            continue;
        }
        let tail = args[close + 1..].trim();
        let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            malformed(
                &format!("allow({category}) needs a reason: `allow({category}) -- <why>`"),
                diags,
            );
            continue;
        }
        allows.push((t.line, category));
    }
    AllowMap { allows }
}

fn push(
    diags: &mut Vec<Diagnostic>,
    allow: &AllowMap,
    file: &str,
    line: usize,
    rule: &str,
    category: &str,
    message: String,
) {
    if allow.covers(line, category) {
        return;
    }
    diags.push(Diagnostic { file: file.to_string(), line, rule: rule.to_string(), message });
}

/// Does `code[i..]` start with the ident/punct sequence `pat`?
/// Punct entries match one punctuation char; idents match exactly.
fn seq_at(code: &[&Token], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(j, p)| {
        code.get(i + j).is_some_and(|t| match t.kind {
            TokKind::Ident | TokKind::Punct => t.text == *p,
            _ => false,
        })
    })
}

/// Run D1–D3 and D5–D6 (plus allow-comment syntax checking) over one file.
pub fn lint_source(file: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_file(file, src, cfg, false)
}

/// [`lint_source`], or with `d3_only` just D3 and allow-comment syntax: for
/// code outside the deterministic crates that reads names back.
pub(crate) fn lint_file(file: &str, src: &str, cfg: &LintConfig, d3_only: bool) -> Vec<Diagnostic> {
    let tokens = tokenize(src);
    let mut diags = Vec::new();
    let allow = collect_allows(file, &tokens, &mut diags);
    let engine_internal = ENGINE_INTERNAL_FILES.iter().any(|f| file.ends_with(f));

    // Code-only view: comments dropped so sequences span commented lines.
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    for i in 0..code.len() {
        if let Some((kind, arg)) = name_site(&code, i) {
            if let Some(message) = cfg.check_name(kind, &arg.text) {
                let (rule, category, _) = d3_rule(kind);
                push(&mut diags, &allow, file, arg.line, rule, category, message);
            }
        }
        if d3_only {
            continue;
        }
        let t = code[i];
        // D1: hash-ordered collections.
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D1/hash-order",
                "hash-order",
                format!(
                    "`{}` iterates in hasher-seed order, which differs across processes; \
                     use `rdv_det::Det{}` (insertion-ordered) or annotate \
                     `// rdv-lint: allow(hash-order) -- <reason>`",
                    t.text,
                    &t.text[4..]
                ),
            );
        }

        // D2: ambient nondeterminism.
        if seq_at(&code, i, &["Instant", ":", ":", "now"]) {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D2/ambient-time",
                "ambient-time",
                "`Instant::now()` reads the wall clock; sim time must come from the \
                 engine's virtual clock"
                    .to_string(),
            );
        }
        if t.kind == TokKind::Ident && t.text == "SystemTime" {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D2/ambient-time",
                "ambient-time",
                "`SystemTime` reads the wall clock; sim time must come from the \
                 engine's virtual clock"
                    .to_string(),
            );
        }
        if t.kind == TokKind::Ident && t.text == "thread_rng" {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D2/ambient-rand",
                "ambient-rand",
                "`thread_rng()` is seeded from the OS; use the engine's seeded RNG".to_string(),
            );
        }
        if seq_at(&code, i, &["rand", ":", ":", "random"]) {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D2/ambient-rand",
                "ambient-rand",
                "`rand::random()` is seeded from the OS; use the engine's seeded RNG".to_string(),
            );
        }
        if seq_at(&code, i, &["env", ":", ":", "var"]) {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D2/ambient-env",
                "ambient-env",
                "`env::var` makes behavior depend on the process environment".to_string(),
            );
        }

        // D5: shard interference. Outside the engine's own barrier internals,
        // sim code may not name the event-ordering types or reach into the
        // shard/coordinator state — cross-shard effects flow through the
        // outbox API at the window barrier, nothing else.
        if !engine_internal {
            if t.kind == TokKind::Ident && D5_ENGINE_TYPES.contains(&t.text.as_str()) {
                push(
                    &mut diags,
                    &allow,
                    file,
                    t.line,
                    "D5/shard-interference",
                    "shard-interference",
                    format!(
                        "`{}` is a sharded-engine internal; node and scenario code must \
                         schedule through the `NodeCtx`/`Sim` public API so every event \
                         gets a canonical key (cross-shard effects go through the outbox \
                         at the window barrier)",
                        t.text
                    ),
                );
            }
            if t.kind == TokKind::Punct && t.text == "." {
                if let Some(m) = code.get(i + 1) {
                    if m.kind == TokKind::Ident && D5_ENGINE_MEMBERS.contains(&m.text.as_str()) {
                        push(
                            &mut diags,
                            &allow,
                            file,
                            m.line,
                            "D5/shard-interference",
                            "shard-interference",
                            format!(
                                "`.{}` reaches into the engine's shard/coordinator state; \
                                 node/link/timer state is owner-shard-only and windows are \
                                 driven by the coordinator — cross-shard effects must go \
                                 through the outbox API",
                                m.text
                            ),
                        );
                    }
                }
            }
        }

        // D6: RNG stream discipline. Sim randomness flows through the
        // per-node `NodeCtx` stream that the engine seeds; constructing or
        // duplicating streams elsewhere risks two nodes (or two shards)
        // silently drawing correlated values.
        if t.kind == TokKind::Ident && t.text == "from_entropy" {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D6/rng-stream",
                "rng-stream",
                "`from_entropy` seeds from the OS; every sim RNG stream must derive from \
                 the scenario seed"
                    .to_string(),
            );
        }
        if !engine_internal && t.kind == TokKind::Ident && t.text == "seed_from_u64" {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D6/rng-stream",
                "rng-stream",
                "constructing an RNG stream outside the engine risks sharing it across \
                 nodes or shards; node randomness comes from the per-node `NodeCtx` \
                 stream (seeded once in engine/mod.rs). Pre-sim generator streams need \
                 `// rdv-lint: allow(rng-stream) -- <why>`"
                    .to_string(),
            );
        }
        if t.kind == TokKind::Ident
            && (t.text == "rng" || t.text == "rngs")
            && seq_at(&code, i + 1, &[".", "clone", "("])
        {
            push(
                &mut diags,
                &allow,
                file,
                t.line,
                "D6/rng-stream",
                "rng-stream",
                "cloning an RNG duplicates its stream; two consumers of clones draw \
                 identical values and silently correlate — derive a fresh salted stream \
                 or use the per-node `NodeCtx` stream"
                    .to_string(),
            );
        }
    }
    diags
}

/// One D4 check: every variant of `enum_name` must be mentioned
/// (`Enum::Variant` or `Self::Variant`) inside each function in `fns`.
pub struct ParityTarget {
    /// Enum whose variants must stay in sync.
    pub enum_name: &'static str,
    /// Functions (encode/decode pairs) that must each cover every variant.
    pub fns: &'static [&'static str],
}

/// D4: wire-message encode/decode parity.
pub fn lint_enum_parity(file: &str, src: &str, targets: &[ParityTarget]) -> Vec<Diagnostic> {
    let tokens = tokenize(src);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut diags = Vec::new();

    for target in targets {
        let Some(variants) = enum_variants(&code, target.enum_name) else {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: 1,
                rule: "D4/wire-parity".to_string(),
                message: format!("expected `enum {}` in this file; not found", target.enum_name),
            });
            continue;
        };
        for fn_name in target.fns {
            let Some((fn_line, body)) = fn_body(&code, fn_name) else {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: 1,
                    rule: "D4/wire-parity".to_string(),
                    message: format!("expected `fn {fn_name}` in this file; not found"),
                });
                continue;
            };
            for variant in &variants {
                let mentioned = (0..body.len()).any(|i| {
                    seq_at(&body, i, &[target.enum_name, ":", ":", variant])
                        || seq_at(&body, i, &["Self", ":", ":", variant])
                });
                if !mentioned {
                    diags.push(Diagnostic {
                        file: file.to_string(),
                        line: fn_line,
                        rule: "D4/wire-parity".to_string(),
                        message: format!(
                            "`fn {fn_name}` does not handle `{}::{variant}`; every wire \
                             variant must appear in both encode and decode paths",
                            target.enum_name
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// One D7 check: a node dispatch function must either handle or *explicitly
/// ignore* (name in a `=> {}` arm) every variant of a wire enum. Unlike D4,
/// the enum and the handlers live in different files: a protocol crate grows
/// a variant, and D7 forces every dispatch in every consuming crate to take a
/// position on it — a wildcard `_ =>` arm silently swallowing new message
/// kinds is exactly the bug class this rule exists to kill.
pub struct HandlerTarget {
    /// File declaring the wire enum (workspace-relative).
    pub enum_file: &'static str,
    /// Enum whose variants each handler must cover.
    pub enum_name: &'static str,
    /// File containing the dispatch functions (workspace-relative).
    pub handler_file: &'static str,
    /// Dispatch functions that must each mention every variant.
    pub fns: &'static [&'static str],
}

/// Parse `enum <name>` variants out of raw source (D7 reads the enum from a
/// different file than the handlers it checks).
pub fn enum_variants_in(src: &str, name: &str) -> Option<Vec<String>> {
    let tokens = tokenize(src);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    enum_variants(&code, name)
}

/// D7: handler exhaustiveness. Every variant in `variants` must be mentioned
/// (`Enum::Variant` or `Self::Variant`) inside each named function of
/// `handler_src`. The handler file's `allow(handler-parity)` annotations
/// apply, keyed on the `fn` line — a dispatch that is a deliberate
/// single-purpose demux can opt out with a reason.
pub fn lint_handler_parity(
    handler_file: &str,
    handler_src: &str,
    enum_name: &str,
    variants: &[String],
    fns: &[&str],
) -> Vec<Diagnostic> {
    let tokens = tokenize(handler_src);
    // lint_source already reports malformed allow comments for this file;
    // swallow the duplicates here and keep only the allow map.
    let mut scratch = Vec::new();
    let allow = collect_allows(handler_file, &tokens, &mut scratch);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut diags = Vec::new();

    for fn_name in fns {
        let Some((fn_line, body)) = fn_body(&code, fn_name) else {
            diags.push(Diagnostic {
                file: handler_file.to_string(),
                line: 1,
                rule: "D7/handler-parity".to_string(),
                message: format!("expected `fn {fn_name}` in this file; not found"),
            });
            continue;
        };
        for variant in variants {
            let mentioned = (0..body.len()).any(|i| {
                seq_at(&body, i, &[enum_name, ":", ":", variant])
                    || seq_at(&body, i, &["Self", ":", ":", variant])
            });
            if !mentioned {
                push(
                    &mut diags,
                    &allow,
                    handler_file,
                    fn_line,
                    "D7/handler-parity",
                    "handler-parity",
                    format!(
                        "`fn {fn_name}` neither handles nor explicitly ignores \
                         `{enum_name}::{variant}`; every wire variant must appear in the \
                         dispatch (a wildcard arm silently swallows new message kinds)"
                    ),
                );
            }
        }
    }
    diags
}

/// Find `enum <name> { … }` and return its variant identifiers.
fn enum_variants(code: &[&Token], name: &str) -> Option<Vec<String>> {
    let start = (0..code.len()).find(|&i| seq_at(code, i, &["enum", name]))?;
    // Skip to the opening brace (generics would sit in between; none here,
    // but handle them anyway).
    let mut i = start + 2;
    while i < code.len() && code[i].text != "{" {
        i += 1;
    }
    let mut depth = 0usize;
    let mut variants = Vec::new();
    let mut expect_variant = false;
    while i < code.len() {
        let t = code[i];
        match t.text.as_str() {
            "{" | "(" | "[" => {
                if t.text == "{" && depth == 0 {
                    expect_variant = true;
                }
                depth += 1;
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(variants);
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" => {} // attribute — the bracket tracking skips its body
            _ if depth == 1 && expect_variant && t.kind == TokKind::Ident => {
                variants.push(t.text.clone());
                expect_variant = false;
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// Find `fn <name>` and return (line, body tokens between its braces).
fn fn_body<'t>(code: &[&'t Token], name: &str) -> Option<(usize, Vec<&'t Token>)> {
    let start = (0..code.len()).find(|&i| seq_at(code, i, &["fn", name]))?;
    let fn_line = code[start].line;
    let mut i = start + 2;
    // Skip the signature: the body starts at the first `{` at paren-depth 0.
    let mut paren = 0usize;
    while i < code.len() {
        match code[i].text.as_str() {
            "(" | "[" | "<" => paren += 1,
            ")" | "]" | ">" => paren = paren.saturating_sub(1),
            "{" if paren == 0 => break,
            _ => {}
        }
        i += 1;
    }
    let body_start = i + 1;
    let mut depth = 1usize;
    i = body_start;
    while i < code.len() && depth > 0 {
        match code[i].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    Some((fn_line, code[body_start..i.saturating_sub(1)].to_vec()))
}

/// Keep diagnostics deterministic and readable: sort by file, line, rule.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.as_str(),
            b.message.as_str(),
        ))
    });
}

/// Group count per rule id, for the summary footer.
pub fn rule_counts(diags: &[Diagnostic]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry(d.rule.clone()).or_insert(0) += 1;
    }
    counts
}
